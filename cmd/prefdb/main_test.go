package main

import (
	"flag"
	"io"
	"testing"

	"prefdb/internal/engine"
)

// shellFlags declares the strategy flags with main's defaults and parses
// args into them.
func shellFlags(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("prefdb", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("mode", "gbu", "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestSessionDefaultsSendOnlySetFlags pins that a connected shell leaves
// the server's defaults alone unless the user passed the flag: the flag
// defaults must not masquerade as explicit session options.
func TestSessionDefaultsSendOnlySetFlags(t *testing.T) {
	opts, err := sessionDefaults(shellFlags(t))
	if err != nil {
		t.Fatal(err)
	}
	if s := engine.CollectSettings(opts...); s != (engine.Settings{}) {
		t.Fatalf("no flags given, yet settings carry %+v", s)
	}

	opts, err = sessionDefaults(shellFlags(t, "-mode", "ftp"))
	if err != nil {
		t.Fatal(err)
	}
	if s := engine.CollectSettings(opts...); s != (engine.Settings{HasMode: true, Mode: engine.ModeFtP}) {
		t.Fatalf("-mode ftp: settings %+v, want mode ftp alone", s)
	}

	if _, err := sessionDefaults(shellFlags(t, "-mode", "warp")); err == nil {
		t.Fatal("unknown -mode value should fail")
	}
}

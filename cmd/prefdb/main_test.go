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
	fs.String("colstore", "off", "")
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
	if s := engine.CollectSettings(opts...); s.HasMode || s.HasColstore {
		t.Fatalf("no flags given, yet settings carry mode=%v colstore=%v", s.HasMode, s.HasColstore)
	}

	opts, err = sessionDefaults(shellFlags(t, "-mode", "ftp"))
	if err != nil {
		t.Fatal(err)
	}
	s := engine.CollectSettings(opts...)
	if !s.HasMode || s.Mode != engine.ModeFtP {
		t.Fatalf("-mode ftp: settings mode = %v (set %v), want ftp", s.Mode, s.HasMode)
	}
	if s.HasColstore {
		t.Fatal("-mode ftp alone should not send a colstore option")
	}

	opts, err = sessionDefaults(shellFlags(t, "-colstore", "on"))
	if err != nil {
		t.Fatal(err)
	}
	if s := engine.CollectSettings(opts...); s.HasMode || !s.HasColstore || s.Colstore != engine.ColstoreOn {
		t.Fatalf("-colstore on: settings %+v", s)
	}

	if _, err := sessionDefaults(shellFlags(t, "-mode", "warp")); err == nil {
		t.Fatal("unknown -mode value should fail")
	}
}

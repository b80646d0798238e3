package engine

import (
	"fmt"
	"strings"
)

// modeTable lists every evaluation mode in presentation order with the
// names it parses from; names[0] is canonical (used in listings and error
// text), the rest are accepted aliases.
var modeTable = []struct {
	names []string
	value Mode
}{
	{[]string{"native"}, ModeNative},
	{[]string{"bu", "bottom-up"}, ModeBU},
	{[]string{"gbu", "group-bottom-up"}, ModeGBU},
	{[]string{"ftp", "filter-then-prefer"}, ModeFtP},
	{[]string{"plugin-naive", "plugin"}, ModePluginNaive},
	{[]string{"plugin-merged"}, ModePluginMerged},
}

// ParseMode resolves an evaluation mode by name ("gbu", "ftp", ...),
// case-insensitively; the empty string resolves to the default, ModeGBU.
// Unknown names fail with
//
//	engine: unknown mode "<name>" (valid: native, bu, ...)
func ParseMode(name string) (Mode, error) {
	if name == "" {
		return ModeGBU, nil
	}
	lower := strings.ToLower(name)
	canonical := make([]string, len(modeTable))
	for i, e := range modeTable {
		for _, n := range e.names {
			if n == lower {
				return e.value, nil
			}
		}
		canonical[i] = e.names[0]
	}
	return 0, fmt.Errorf("engine: unknown mode %q (valid: %s)", name, strings.Join(canonical, ", "))
}

// Modes lists every evaluation mode in presentation order.
func Modes() []Mode {
	out := make([]Mode, len(modeTable))
	for i, e := range modeTable {
		out[i] = e.value
	}
	return out
}

// Generic mode registry: one table per enumerated option (evaluation
// mode, colstore side) resolving names to values with
// uniform error text and a uniform listing, replacing the hand-written
// Parse*Mode switches that had drifted apart in error wording. The exported Parse*/*Modes functions remain thin wrappers so
// existing call sites and flag parsing keep compiling unchanged.
package engine

import (
	"fmt"
	"strings"
)

// modeRegistry resolves the names of one enumerated option. Entries are
// listed in presentation order; the first name of an entry is canonical
// (used in listings and error text), the rest are accepted aliases.
type modeRegistry[T any] struct {
	// option names the setting in error messages ("mode", "colstore mode").
	option string
	// empty, when set, is the value resolved for the empty string (the
	// "flag left at its default" convention of the evaluation mode).
	empty   *T
	entries []modeEntry[T]
}

type modeEntry[T any] struct {
	names []string // names[0] is canonical
	value T
}

// parse resolves a name (case-insensitive) to its value. Unknown names
// fail with the uniform shape:
//
//	engine: unknown <option> "<name>" (valid: a, b, c)
func (r *modeRegistry[T]) parse(name string) (T, error) {
	if name == "" && r.empty != nil {
		return *r.empty, nil
	}
	lower := strings.ToLower(name)
	for _, e := range r.entries {
		for _, n := range e.names {
			if n == lower {
				return e.value, nil
			}
		}
	}
	var zero T
	return zero, fmt.Errorf("engine: unknown %s %q (valid: %s)", r.option, name, strings.Join(r.names(), ", "))
}

// names lists the canonical name of every entry in presentation order.
func (r *modeRegistry[T]) names() []string {
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.names[0]
	}
	return out
}

// values lists every value in presentation order.
func (r *modeRegistry[T]) values() []T {
	out := make([]T, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.value
	}
	return out
}

var (
	modeReg = &modeRegistry[Mode]{option: "mode", empty: ptr(ModeGBU), entries: []modeEntry[Mode]{
		{names: []string{"native"}, value: ModeNative},
		{names: []string{"bu", "bottom-up"}, value: ModeBU},
		{names: []string{"gbu", "group-bottom-up"}, value: ModeGBU},
		{names: []string{"ftp", "filter-then-prefer"}, value: ModeFtP},
		{names: []string{"plugin-naive", "plugin"}, value: ModePluginNaive},
		{names: []string{"plugin-merged"}, value: ModePluginMerged},
	}}
	colstoreReg = &modeRegistry[ColstoreMode]{option: "colstore mode", entries: []modeEntry[ColstoreMode]{
		{names: []string{"off"}, value: ColstoreOff},
		{names: []string{"on"}, value: ColstoreOn},
	}}
)

func ptr[T any](v T) *T { return &v }

// ParseMode resolves an evaluation mode by name ("gbu", "ftp", ...); the
// empty string resolves to the default, ModeGBU.
func ParseMode(name string) (Mode, error) { return modeReg.parse(name) }

// Modes lists every evaluation mode in presentation order.
func Modes() []Mode { return modeReg.values() }

// ParseColstoreMode resolves a colstore mode by name ("on", "off").
func ParseColstoreMode(name string) (ColstoreMode, error) { return colstoreReg.parse(name) }

// ColstoreModes lists every colstore mode in presentation order.
func ColstoreModes() []ColstoreMode { return colstoreReg.values() }

//go:build !linux

package main

import "os/exec"

// dieWithParent is Linux-only; elsewhere children end on the normal paths.
func dieWithParent(*exec.Cmd) {}

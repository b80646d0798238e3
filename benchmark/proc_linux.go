//go:build linux

package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the child when this process ends, however
// it ends: a workload process that crashes takes its server with it, and a
// driver that is killed takes its workload process. The signal is bound to the
// starting thread; the runtime keeps its threads, nothing here locks one.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

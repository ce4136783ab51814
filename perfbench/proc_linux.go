package main

import (
	"os/exec"
	"syscall"
)

// killWithParent makes the kernel kill the server if the benchmark dies
// without stopping it, so no process outlives a run.
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

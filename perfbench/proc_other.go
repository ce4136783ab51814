//go:build !linux

package main

import "os/exec"

// killWithParent is a no-op where the kernel offers no parent-death
// signal; stop still terminates the server on every normal exit path.
func killWithParent(*exec.Cmd) {}

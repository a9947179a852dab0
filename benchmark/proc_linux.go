//go:build linux

package main

import "syscall"

// childAttr makes a server process die with the benchmark even when the
// benchmark is SIGKILLed. It is the one Linux-only call besides the
// /proc reads; there is no fallback, so the package builds on Linux
// only.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

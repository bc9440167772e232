//go:build !linux

package main

// pinToOneCPU is Linux-only; elsewhere the run is left where the
// scheduler puts it.
func pinToOneCPU() error { return nil }

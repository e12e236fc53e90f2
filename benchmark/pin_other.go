//go:build !linux

package main

import "errors"

// pinToOneCPU is Linux-only; elsewhere the run goes ahead unpinned.
func pinToOneCPU() (int, error) {
	return -1, errors.New("CPU pinning is not supported on this platform")
}

//go:build !linux

package kv

import "os"

// syncFile is f.Sync(); see fsync_linux.go for why Linux has its own.
func syncFile(f *os.File) error { return f.Sync() }

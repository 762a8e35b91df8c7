//go:build !linux

package main

// filesystemOf names the filesystem holding dir (Linux only).
func filesystemOf(string) string { return "unknown" }

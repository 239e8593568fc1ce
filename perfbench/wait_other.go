//go:build !linux

package main

import "time"

// waitUntil returns at t (timer resolution; see wait_linux.go).
func waitUntil(t time.Time) { time.Sleep(time.Until(t)) }

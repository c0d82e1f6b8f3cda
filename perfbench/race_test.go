//go:build race

package main

// Under the race detector most samples land in instrumentation the CPU
// profiler cannot unwind through, so the ledger cannot attribute them.
func init() { raceBuild = true }

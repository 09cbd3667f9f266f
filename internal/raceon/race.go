//go:build race

// Package raceon reports whether the race detector is compiled in, for
// tests whose assertions it perturbs: it adds allocations of its own and
// makes sync.Pool drop a share of what is Put.
package raceon

// Enabled is true in -race builds.
const Enabled = true

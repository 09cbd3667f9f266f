//go:build !race

package raceon

// Enabled is true in -race builds.
const Enabled = false

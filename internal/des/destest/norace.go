//go:build !race

package destest

// Race reports whether the race detector is compiled in. It allocates
// on the paths it instruments, so allocation guards
// (testing.AllocsPerRun) skip themselves when it is.
const Race = false

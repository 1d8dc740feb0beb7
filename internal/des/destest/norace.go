//go:build !race

package destest

// Race: see race.go.
const Race = false

//go:build race

package memkv

// raceEnabled reports a -race build: Release poisons what it pools.
const raceEnabled = true

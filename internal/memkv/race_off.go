//go:build !race

package memkv

const raceEnabled = false

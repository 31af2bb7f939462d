package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Every stored value names the key it belongs to and the write that
// produced it, so a reply can be checked without a second copy of the
// data set: bytes 0..8 are the key index, 8..16 the write's sequence
// number, the middle is filler derived from both, and the last four
// bytes are a CRC-32C of everything before them.
const minValueSize = 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func keyName(i int) string { return fmt.Sprintf("k%08d", i) }

// fillValue writes the value of (key, seq) into dst, whose length is the
// value size.
func fillValue(dst []byte, key int, seq uint64) {
	n := len(dst)
	binary.LittleEndian.PutUint64(dst[0:8], uint64(key))
	binary.LittleEndian.PutUint64(dst[8:16], seq)
	x := mix64(uint64(key)<<32 ^ seq)
	for i := 16; i < n-4; i++ {
		dst[i] = byte(x >> (8 * (uint(i) & 7)))
	}
	binary.LittleEndian.PutUint32(dst[n-4:], crc32.Checksum(dst[:n-4], castagnoli))
}

// checkValue reports whether v is exactly the value of (key, seq) at the
// given size.
func checkValue(v []byte, key int, seq uint64, size int) bool {
	if len(v) != size || size < minValueSize {
		return false
	}
	if binary.LittleEndian.Uint64(v[0:8]) != uint64(key) || binary.LittleEndian.Uint64(v[8:16]) != seq {
		return false
	}
	return binary.LittleEndian.Uint32(v[size-4:]) == crc32.Checksum(v[:size-4], castagnoli)
}

// mix64 is the splitmix64 finaliser: a stateless hash used wherever the
// benchmark needs a reproducible pseudo-random decision from a counter.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

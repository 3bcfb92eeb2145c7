package main

import (
	"encoding/binary"
	"hash/crc32"
	"strconv"
)

// Every value the harness writes describes itself: key id, total
// length and a checksum of the body sit in its first bytes, so any
// read can be verified without knowing which write it observed (the
// store is last-writer-wins across handles, so the harness cannot
// know).
const valueHeaderLen = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// makeValue builds the self-validating value of the given size for a
// key. Sizes below the header are raised to it.
func makeValue(keyID, size int) []byte {
	if size < valueHeaderLen {
		size = valueHeaderLen
	}
	v := make([]byte, size)
	binary.BigEndian.PutUint32(v[0:], uint32(keyID))
	binary.BigEndian.PutUint32(v[4:], uint32(size))
	body := v[valueHeaderLen:]
	fill := byte(keyID*31 + size)
	for i := range body {
		body[i] = fill + byte(i)
	}
	binary.BigEndian.PutUint32(v[8:], crc32.Checksum(body, castagnoli))
	return v
}

// checkValue reports whether v is a complete value written for keyID.
func checkValue(keyID int, v []byte) bool {
	if len(v) < valueHeaderLen {
		return false
	}
	return binary.BigEndian.Uint32(v[0:]) == uint32(keyID) &&
		binary.BigEndian.Uint32(v[4:]) == uint32(len(v)) &&
		binary.BigEndian.Uint32(v[8:]) == crc32.Checksum(v[valueHeaderLen:], castagnoli)
}

// keyNames returns the store keys of ids [0, n): "key:<id>", the
// namespace loadgen ops address.
func keyNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "key:" + strconv.Itoa(i)
	}
	return names
}

package graph

import (
	"encoding/binary"
	"hash/crc32"
)

// Fingerprint hashes the content identity of g: node count, edge count,
// then the three CSR sections exactly as .csrg stores them (offsets,
// targets, ids), folded through CRC-32 (IEEE) in little-endian order. Two
// graphs with equal topology and identifiers fingerprint identically
// regardless of how they were loaded — built in memory, parsed from the
// text format, heap-read or memory-mapped from a .csrg file — while two
// graphs with equal n, m and IDs but different edges do not. That is what
// makes the fingerprint the mdsd cache key: the serving layer keys resident
// graphs and certified solutions by it, so the same content under two
// paths shares one cache line and different content never does.
func Fingerprint(g *Graph) uint32 {
	h := crc32.NewIEEE()
	var nm [16]byte
	binary.LittleEndian.PutUint64(nm[0:8], uint64(g.N()))
	binary.LittleEndian.PutUint64(nm[8:16], uint64(g.M()))
	h.Write(nm[:])
	// Hash writes never fail, so neither do the section writers.
	_ = g.writeOffsets(h)
	_ = g.writeTargets(h)
	_ = g.writeIDs(h)
	return h.Sum32()
}

// Bytes returns the size of the CSR representation in bytes: the offsets,
// targets and ids slices exactly, whether they live on the Go heap or in a
// memory mapping. This is the residency cost a graph server accounts
// against its byte budget (and, up to the 48-byte header and CRCs, the
// .csrg file size).
func (g *Graph) Bytes() int64 {
	return int64(8*len(g.offsets) + 4*len(g.targets) + 8*len(g.ids))
}

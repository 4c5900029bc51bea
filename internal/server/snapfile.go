package server

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// The snapshot file. `<id>.json` keeps one job's snapshot in one of
// two fixed-size regions, so a steady-state save overwrites the region
// that does not hold the newest snapshot — one write and one fsync —
// and a crash mid-write leaves the other region intact:
//
//	offset 0        file header: magic "cdt-snap" | version u32 | region size R u32 | CRC-32C u32
//	offset 4096     region 0:    magic "CDTR" | generation u64 | length u32 | CRC-32C u32 | payload
//	offset 4096+R   region 1:    the same
//
// Integers are little-endian. A region's CRC-32C covers its generation,
// its length and its payload; generation 0 is never written. The
// regions are 4 KiB-aligned, so a torn write of one never touches a
// page of the other or of the header. The header (and with it R) is
// written only when the whole file is replaced atomically, so it can
// be read whatever state either region was torn in. The file is
// exactly 4096 + 2R bytes long; anything else is not a two-region
// file. It does not start with `{`, so a binary that still reads
// `<id>.json` as plain JSON refuses it rather than misreading it.

const (
	snapMagic        = "cdt-snap"
	snapVersion      = 1
	snapHeaderSize   = 20
	snapPage         = 4096
	regionMagic      = "CDTR"
	regionHeaderSize = 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotCorrupt is returned by Load when `<id>.json` is not a
// two-region file with a region that verifies. A plain-JSON snapshot
// of a store that predates this layout is refused with it too.
var ErrSnapshotCorrupt = errors.New("server: snapshot file corrupt")

// snapFile is a parsed two-region file: its region size and, for each
// region that verifies, its generation and payload (generation 0 when
// it does not).
type snapFile struct {
	region  int
	gen     [2]uint64
	payload [2][]byte
}

// parseSnapFile reads buf as a two-region file, reporting false when
// its header is not one this store writes.
func parseSnapFile(buf []byte) (snapFile, bool) {
	var sf snapFile
	if len(buf) < snapPage || string(buf[:8]) != snapMagic ||
		binary.LittleEndian.Uint32(buf[8:]) != snapVersion ||
		binary.LittleEndian.Uint32(buf[16:]) != crc32.Checksum(buf[:16], castagnoli) {
		return sf, false
	}
	r := int64(binary.LittleEndian.Uint32(buf[12:]))
	if r < snapPage || r%snapPage != 0 || int64(len(buf)) != snapPage+2*r {
		return sf, false
	}
	sf.region = int(r)
	for i := range sf.gen {
		off := snapPage + i*sf.region
		sf.gen[i], sf.payload[i] = verifyRegion(buf[off : off+sf.region])
	}
	return sf, true
}

// verifyRegion returns a region's generation and payload, or 0 and nil
// when it does not verify.
func verifyRegion(reg []byte) (uint64, []byte) {
	if string(reg[:4]) != regionMagic {
		return 0, nil
	}
	gen := binary.LittleEndian.Uint64(reg[4:])
	n := int64(binary.LittleEndian.Uint32(reg[12:]))
	if gen == 0 || n > int64(len(reg)-regionHeaderSize) {
		return 0, nil
	}
	end := regionHeaderSize + int(n)
	sum := crc32.Update(crc32.Checksum(reg[4:16], castagnoli), castagnoli, reg[regionHeaderSize:end])
	if sum != binary.LittleEndian.Uint32(reg[16:]) {
		return 0, nil
	}
	return gen, reg[regionHeaderSize:end:end]
}

// newest returns the region holding the highest verified generation,
// or -1 when neither verifies.
func (sf *snapFile) newest() int {
	switch {
	case sf.gen[0] == 0 && sf.gen[1] == 0:
		return -1
	case sf.gen[1] > sf.gen[0]:
		return 1
	}
	return 0
}

// putRegion writes data as a region of generation gen at the start of
// dst, which must hold regionHeaderSize+len(data) bytes, and returns
// the bytes written.
func putRegion(dst []byte, gen uint64, data []byte) []byte {
	copy(dst, regionMagic)
	binary.LittleEndian.PutUint64(dst[4:], gen)
	binary.LittleEndian.PutUint32(dst[12:], uint32(len(data)))
	copy(dst[regionHeaderSize:], data)
	sum := crc32.Update(crc32.Checksum(dst[4:16], castagnoli), castagnoli, data)
	binary.LittleEndian.PutUint32(dst[16:], sum)
	return dst[:regionHeaderSize+len(data)]
}

// newSnapFile lays out a whole two-region file holding data at
// generation gen in region 0. Its regions leave an eighth of data's
// size for growth, rounded up to whole pages.
func newSnapFile(gen uint64, data []byte) []byte {
	r := (regionHeaderSize + len(data) + len(data)/8 + snapPage - 1) / snapPage * snapPage
	buf := make([]byte, snapPage+2*r)
	copy(buf, snapMagic)
	binary.LittleEndian.PutUint32(buf[8:], snapVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(r))
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[:16], castagnoli))
	putRegion(buf[snapPage:], gen, data)
	return buf
}

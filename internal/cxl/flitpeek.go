package cxl

import "encoding/binary"

// Raw flit inspection and mutation, for fault injectors outside this
// package (internal/chaos). These read and write the wire image without
// validating it — a corrupted flit is exactly the point — mirroring
// what flitRecordOf does for the flight recorder.

// PeekKind returns the flit's kind byte as encoded on the wire.
func (f *Flit) PeekKind() uint8 { return f.raw[0] }

// PeekAddr returns the flit's address field as encoded on the wire.
// Data flits carry payload there; the value is only meaningful for
// request/response kinds, which is fine for address-range fault
// predicates (a data flit simply never matches a narrow range).
func (f *Flit) PeekAddr() uint64 { return binary.LittleEndian.Uint64(f.raw[8:16]) }

// FlipBit inverts one bit of the wire image (bit i of the raw flit,
// modulo its size) — the single-event-upset fault. The receiver's CRC
// check catches it and the LRSM retransmits.
func (f *Flit) FlipBit(i uint) {
	n := i % uint(len(f.raw)*8)
	f.raw[n/8] ^= 1 << (n % 8)
}

// Erase zeroes the wire image — the lost-flit fault. Decode fails at
// the receiver (bad kind/CRC), driving the same retry path as a
// corruption but with nothing recoverable in flight.
func (f *Flit) Erase() {
	f.raw = [flitRawSize]byte{}
}

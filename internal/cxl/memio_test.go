package cxl

import (
	"bytes"
	"errors"
	"testing"
)

// TestMemIOContract runs every MemIO implementation through the same
// contract: line-granular entry points reject unaligned addresses and
// lengths with ErrUnaligned, a window shifts every address by its base,
// and line, burst and byte transfers round-trip.
func TestMemIOContract(t *testing.T) {
	const winBase = 0x1000
	type memioCase struct {
		name string
		io   MemIO
		base uint64 // first address io serves
		// inner, when non-nil, is the path beneath a window: what io
		// stores at base+x must read back from inner at shift+x.
		inner MemIO
		shift uint64
	}
	port, _ := burstPort(t, 1<<20)
	set, _ := testInterleaveSet(t, 2, DefaultInterleaveGranule)
	winPort, _ := burstPort(t, 1<<20)
	winSet, _ := testInterleaveSet(t, 2, DefaultInterleaveGranule)
	cases := []memioCase{
		{name: "port", io: port},
		{name: "interleave", io: set, base: set.Base()},
		{name: "device", io: NewDeviceIO(testMedia(t, "dio-ddr"))},
		{name: "window/port", io: NewWindowIO(winPort, winBase), inner: winPort, shift: winBase},
		{name: "window/interleave", io: NewWindowIO(winSet, winSet.Base()), inner: winSet, shift: winSet.Base()},
	}
	pattern := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7) ^ seed
		}
		return p
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var line [LineSize]byte
			unaligned := []struct {
				what string
				err  error
			}{
				{"ReadLine at base+1", c.io.ReadLine(c.base+1, &line)},
				{"WriteLine at base+1", c.io.WriteLine(c.base+1, &line)},
				{"ReadBurst at base+1", c.io.ReadBurst(c.base+1, make([]byte, LineSize))},
				{"WriteBurst at base+1", c.io.WriteBurst(c.base+1, make([]byte, LineSize))},
				{"ReadBurst of LineSize+1 bytes", c.io.ReadBurst(c.base, make([]byte, LineSize+1))},
				{"WriteBurst of LineSize+1 bytes", c.io.WriteBurst(c.base, make([]byte, LineSize+1))},
			}
			for _, u := range unaligned {
				var pe *PortError
				if !errors.Is(u.err, ErrUnaligned) || !errors.As(u.err, &pe) {
					t.Errorf("%s: err = %v, want a *PortError wrapping ErrUnaligned", u.what, u.err)
				}
			}

			copy(line[:], pattern(LineSize, 1))
			var got [LineSize]byte
			if err := c.io.WriteLine(c.base+uint64(LineSize), &line); err != nil {
				t.Fatal(err)
			}
			if err := c.io.ReadLine(c.base+uint64(LineSize), &got); err != nil {
				t.Fatal(err)
			}
			if got != line {
				t.Error("line round trip mismatch")
			}

			// Eleven lines from 4 KiB in: crosses several 256 B granules.
			burst := pattern(11*LineSize, 2)
			if err := c.io.WriteBurst(c.base+4096, burst); err != nil {
				t.Fatal(err)
			}
			back := make([]byte, len(burst))
			if err := c.io.ReadBurst(c.base+4096, back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, burst) {
				t.Error("burst round trip mismatch")
			}

			// Unaligned head and tail around an aligned interior.
			off := int64(c.base) + 8192 + 13
			bs := pattern(3*LineSize+20, 3)
			if err := c.io.WriteAt(bs, off); err != nil {
				t.Fatal(err)
			}
			backAt := make([]byte, len(bs))
			if err := c.io.ReadAt(backAt, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(backAt, bs) {
				t.Error("byte round trip mismatch")
			}

			if c.inner == nil {
				return
			}
			if err := c.inner.ReadLine(c.shift+uint64(LineSize), &got); err != nil {
				t.Fatal(err)
			}
			if got != line {
				t.Error("window line did not land at base+offset beneath it")
			}
			under := make([]byte, len(bs))
			if err := c.inner.ReadAt(under, int64(c.shift)+off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(under, bs) {
				t.Error("window bytes did not land at base+offset beneath it")
			}
		})
	}
}

// TestEmptySpanIssuesNoTransaction checks that a zero-length ReadAt or
// WriteAt on either port-backed MemIO moves nothing: no transaction is
// issued on any port and no device counter moves, at a line-aligned
// offset and inside a line alike.
func TestEmptySpanIssuesNoTransaction(t *testing.T) {
	port, dev := burstPort(t, 1<<20)
	set, devs := testInterleaveSet(t, 2, DefaultInterleaveGranule)
	cases := []struct {
		name  string
		io    MemIO
		base  uint64
		ports []*RootPort
		devs  []*Type3Device
	}{
		{"port", port, 0, []*RootPort{port}, []*Type3Device{dev}},
		{"interleave", set, set.Base(), set.Ports(), devs},
	}
	type counts struct {
		issued                                      int64
		reads, writes, partials, bursts, lines, err int64
	}
	snap := func(ports []*RootPort, devs []*Type3Device) (c counts) {
		for _, rp := range ports {
			c.issued += rp.Stats().Issued
		}
		for _, d := range devs {
			st := d.Stats()
			c.reads += st.Reads.Load()
			c.writes += st.Writes.Load()
			c.partials += st.PartialWrites.Load()
			c.bursts += st.ReadBursts.Load() + st.WriteBursts.Load()
			c.lines += st.BurstLines.Load()
			c.err += st.Errors.Load()
		}
		return c
	}
	for _, c := range cases {
		for _, off := range []uint64{5, uint64(LineSize), 2*uint64(LineSize) + 63} {
			before := snap(c.ports, c.devs)
			if err := c.io.WriteAt(nil, int64(c.base+off)); err != nil {
				t.Errorf("%s: WriteAt(nil, base+%d) = %v", c.name, off, err)
			}
			if err := c.io.ReadAt([]byte{}, int64(c.base+off)); err != nil {
				t.Errorf("%s: ReadAt(empty, base+%d) = %v", c.name, off, err)
			}
			if after := snap(c.ports, c.devs); after != before {
				t.Errorf("%s: empty spans at base+%d moved counters %+v -> %+v", c.name, off, before, after)
			}
		}
	}
}

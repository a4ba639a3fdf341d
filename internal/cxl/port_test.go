package cxl

import (
	"encoding/binary"
	"testing"
)

// testPort builds a trained port over a 16 MiB Type-3 device with one
// window at base 0.
func testPort(t *testing.T) *RootPort {
	t.Helper()
	rp, _ := burstPort(t, 1<<24)
	return rp
}

// vcBlock returns the base HPA of the n-th vcStride-line block, i.e.
// the n-th consecutive address window mapped to VC n&(NumVCs-1).
func vcBlock(n int) uint64 { return uint64(n) * uint64(vcStride*LineSize) }

// reqFlitTag extracts the wire tag of a request flit.
func reqFlitTag(f *Flit) (uint16, bool) {
	if f.raw[0] != flitKindReq {
		return 0, false
	}
	return uint16(binary.LittleEndian.Uint64(f.raw[0:8]) >> 16), true
}

// TestRingTagWraparound drives 2^vcTagBits consecutive writes through
// one VC: every request carries that VC's index in its tag's high bits
// and a tag no earlier write carried, and the next write wraps back to
// the first write's tag.
func TestRingTagWraparound(t *testing.T) {
	rp := testPort(t)
	const vc = 5
	base := vcBlock(vc) // every address below stays on VC 5
	var tags []uint16
	rp.SetFault(func(f Flit) Flit {
		if tag, ok := reqFlitTag(&f); ok {
			tags = append(tags, tag)
		}
		return f
	})
	var line [LineSize]byte
	const total = 1 << vcTagBits
	for i := 0; i <= total; i++ {
		if err := rp.WriteLine(base+uint64(i%vcStride*LineSize), &line); err != nil {
			t.Fatal(err)
		}
	}
	if len(tags) != total+1 {
		t.Fatalf("traced %d request tags, want %d", len(tags), total+1)
	}
	seen := make(map[uint16]int, total)
	for i, tag := range tags[:total] {
		if tag>>vcTagBits != vc {
			t.Fatalf("write %d: tag %#x not on VC %d", i, tag, vc)
		}
		if prev, dup := seen[tag]; dup {
			t.Fatalf("tag %#x reused by write %d (first carried by write %d)", tag, i, prev)
		}
		seen[tag] = i
	}
	if tags[total] != tags[0] {
		t.Fatalf("write %d carried tag %#x, want the wrapped tag %#x", total, tags[total], tags[0])
	}
}

// TestPortStatsSnapshot checks the PortStats accessor against known
// synchronous traffic split over two VCs.
func TestPortStatsSnapshot(t *testing.T) {
	rp := testPort(t)
	var line [LineSize]byte
	const ops = 24
	for j := 0; j < ops; j++ {
		if err := rp.WriteLine(vcBlock(j%2)+uint64(j/2*LineSize), &line); err != nil {
			t.Fatal(err)
		}
	}
	st := rp.Stats()
	if st.Issued != ops || st.Doorbells != ops {
		t.Errorf("Issued = %d, Doorbells = %d, want both %d", st.Issued, st.Doorbells, ops)
	}
	for i, vc := range st.VCs {
		want := int64(0)
		if i < 2 {
			want = ops / 2
		}
		if vc.Issued != want {
			t.Errorf("VC %d issued %d, want %d", i, vc.Issued, want)
		}
	}
	var vcRetries int64
	for _, vc := range st.VCs {
		vcRetries += vc.Retries
	}
	if vcRetries != st.Retries {
		t.Errorf("per-VC retries sum to %d, total says %d", vcRetries, st.Retries)
	}
}

package cxl

import (
	"bytes"
	"errors"
	"testing"

	"cxlpmem/internal/telemetry"
)

// flitKindCase names one flit kind of the CXL.mem data path: the
// transaction that carries it and a predicate picking it off the wire.
type flitKindCase struct {
	name  string
	op    string // PortError.Op the transaction reports
	write bool
	burst bool
	match func(f *Flit) bool
}

func isKind(kind uint8) func(f *Flit) bool {
	return func(f *Flit) bool { return f.PeekKind() == kind }
}

// TestEveryFlitKindRetriesAndFails drives each flit kind through the
// link-level retry machine. One corrupted flit is retransmitted once:
// the transaction succeeds byte-exact, the retry is charged to the port
// and to the device, and the flight recorder force-captures the failed
// image. A flit corrupted on every attempt exhausts the budget: the
// transaction fails with ErrUncorrectable naming its own opcode and
// address, and the device counts one uncorrectable error.
func TestEveryFlitKindRetriesAndFails(t *testing.T) {
	const addr = 0x1040
	const burstLen = 4 * LineSize
	cases := []flitKindCase{
		{"burst header", "MemWrBurst", true, true, func(f *Flit) bool {
			return f.PeekKind() == flitKindReq && MemOpcode(f.raw[1]) == OpMemWrBurst
		}},
		{"write beat", "MemWrBurst", true, true, isKind(flitKindData)},
		{"read beat", "MemRdBurst", false, true, isKind(flitKindData)},
		{"burst completion", "MemRdBurst", false, true, isKind(flitKindResp)},
		{"read request", "MemRd", false, false, isKind(flitKindReq)},
		{"request flit", "MemWr", true, false, isKind(flitKindReq)},
		{"read return", "MemRd", false, false, isKind(flitKindData)},
		{"write completion", "MemWr", true, false, isKind(flitKindResp)},
	}
	for _, tc := range cases {
		for _, persistent := range []bool{false, true} {
			name := tc.name + "/once"
			if persistent {
				name = tc.name + "/always"
			}
			t.Run(name, func(t *testing.T) {
				rp, dev := burstPort(t, 1<<20)
				// Sample (effectively) never: only forced error records land.
				rec := rp.EnableTelemetry(telemetry.NewRegistry(), TelemetryOptions{SampleN: 1 << 30, RecorderSlots: 64})
				n := LineSize
				if tc.burst {
					n = burstLen
				}
				want := make([]byte, n)
				for i := range want {
					want[i] = byte(i*5 + 3)
				}
				got := make([]byte, n)
				// Reads need the pattern on the media first; writes start
				// from zeroed media so a lost write shows.
				if !tc.write {
					if err := rp.WriteBurst(addr, want); err != nil {
						t.Fatal(err)
					}
				}
				fired := false
				rp.SetFault(func(f Flit) Flit {
					if tc.match(&f) && (persistent || !fired) {
						fired = true
						return f.Corrupt(9)
					}
					return f
				})
				media := dev.Media().Stats()
				retries0 := media.LinkRetries.Load()
				uncorr0 := media.Uncorrectable.Load()

				var err error
				switch {
				case tc.write && tc.burst:
					err = rp.WriteBurst(addr, want)
				case tc.burst:
					err = rp.ReadBurst(addr, got)
				case tc.write:
					err = rp.WriteLine(addr, (*[LineSize]byte)(want))
				default:
					err = rp.ReadLine(addr, (*[LineSize]byte)(got))
				}
				rp.SetFault(nil)
				if !fired {
					t.Fatal("the transaction never carried the flit kind under test")
				}

				if persistent {
					if !errors.Is(err, ErrUncorrectable) {
						t.Fatalf("err = %v, want ErrUncorrectable", err)
					}
					var pe *PortError
					if !errors.As(err, &pe) || pe.Op != tc.op || pe.Addr != addr {
						t.Fatalf("err = %v, want a PortError naming %s @%#x", err, tc.op, addr)
					}
					if d := media.Uncorrectable.Load() - uncorr0; d != 1 {
						t.Errorf("device Uncorrectable rose by %d, want 1", d)
					}
					return
				}

				if err != nil {
					t.Fatalf("one corrupted flit failed the transaction: %v", err)
				}
				if tc.write {
					if err := rp.ReadBurst(addr, got); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, want) {
					t.Fatal("payload differs after the retried transaction")
				}
				if r := rp.Stats().Retries; r != 1 {
					t.Errorf("PortStats.Retries = %d, want 1", r)
				}
				if d := media.LinkRetries.Load() - retries0; d != 1 {
					t.Errorf("device LinkRetries rose by %d, want 1", d)
				}
				if d := media.Uncorrectable.Load() - uncorr0; d != 0 {
					t.Errorf("device Uncorrectable rose by %d, want 0", d)
				}
				errRecs := 0
				for _, r := range rec.Dump() {
					if r.Err {
						errRecs++
					}
				}
				if errRecs != 1 {
					t.Errorf("flight recorder holds %d Err records, want 1", errRecs)
				}
			})
		}
	}
}

// TestCompletionPayloadFlipRetries flips one payload bit of the first
// completion flit of a MemWrPtl and, separately, of a burst. A
// completion carries only its status and tag, but its zero payload
// still crosses the wire under the checksum, so the port must see the
// flip, retry the completion once and succeed.
func TestCompletionPayloadFlipRetries(t *testing.T) {
	const addr = 0x2000
	for _, burst := range []bool{false, true} {
		name := "MemWrPtl"
		if burst {
			name = "MemWrBurst"
		}
		t.Run(name, func(t *testing.T) {
			rp, dev := burstPort(t, 1<<20)
			want := []byte("partial")
			at := uint64(addr + 5)
			if burst {
				want, at = bytes.Repeat([]byte{0x5A, 0xC3}, 2*LineSize), addr
			}
			flipped := false
			rp.SetFault(func(f Flit) Flit {
				if f.PeekKind() == flitKindResp && !flipped {
					flipped = true
					f.FlipBit(uint(flitHeaderSize+LineSize/2)*8 + 3)
				}
				return f
			})
			media := dev.Media().Stats()
			var err error
			if burst {
				err = rp.WriteBurst(at, want)
			} else {
				err = rp.WriteAt(want, int64(at))
			}
			rp.SetFault(nil)
			if !flipped {
				t.Fatal("the transaction carried no completion flit")
			}
			if err != nil {
				t.Fatalf("one flipped completion failed the transaction: %v", err)
			}
			if r := rp.Stats().VCs[vcFor(addr)].Retries; r != 1 {
				t.Errorf("VC %d Retries = %d, want 1", vcFor(addr), r)
			}
			if r := media.LinkRetries.Load(); r != 1 {
				t.Errorf("media LinkRetries = %d, want 1", r)
			}
			got := make([]byte, len(want))
			if err := rp.ReadAt(got, int64(at)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("payload differs after the retried completion")
			}
		})
	}
}

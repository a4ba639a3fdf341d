package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestFlightRecorderWraparound fills the ring past capacity and checks
// that the dump holds exactly the newest window, in order.
func TestFlightRecorderWraparound(t *testing.T) {
	fr := NewFlightRecorder(64)
	const n = 200
	for i := 0; i < n; i++ {
		fr.Record(FlitRecord{Kind: 2, Addr: uint64(i)})
	}
	if fr.Recorded() != n {
		t.Fatalf("recorded %d want %d", fr.Recorded(), n)
	}
	dump := fr.Dump()
	if len(dump) != 64 {
		t.Fatalf("dump holds %d records, want ring depth 64", len(dump))
	}
	for i, rec := range dump {
		wantSeq := uint64(n - 64 + i)
		if rec.Seq != wantSeq || rec.Addr != wantSeq {
			t.Fatalf("dump[%d] = seq %d addr %d, want %d", i, rec.Seq, rec.Addr, wantSeq)
		}
	}
}

// TestFlightRecorderPartial dumps a ring that never wrapped.
func TestFlightRecorderPartial(t *testing.T) {
	fr := NewFlightRecorder(64)
	for i := 0; i < 10; i++ {
		fr.Record(FlitRecord{Kind: 0, Tag: uint16(i)})
	}
	dump := fr.Dump()
	if len(dump) != 10 {
		t.Fatalf("dump holds %d records, want 10", len(dump))
	}
	for i, rec := range dump {
		if rec.Seq != uint64(i) || rec.Tag != uint16(i) {
			t.Fatalf("dump[%d] out of order: %+v", i, rec)
		}
	}
}

// TestFlightRecorderErrFlag checks the CRC-fail flag round-trips and
// renders in String().
func TestFlightRecorderErrFlag(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Record(FlitRecord{Kind: 2, Err: true, Addr: 0xdead})
	dump := fr.Dump()
	if len(dump) != 1 || !dump[0].Err {
		t.Fatalf("Err flag lost: %+v", dump)
	}
	if s := dump[0].String(); !strings.Contains(s, "CRC-FAIL") || !strings.Contains(s, "0xdead") {
		t.Fatalf("String() = %q", s)
	}
}

// TestFlightRecorderConcurrent hammers the ring from many writers while
// a reader dumps (run under -race): dumps must stay sequence-ordered
// with no torn records.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(kind uint8) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				fr.Record(FlitRecord{Kind: kind, Addr: uint64(i)})
			}
		}(uint8(g))
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			dump := fr.Dump()
			last := uint64(0)
			for _, rec := range dump {
				if rec.Seq < last {
					t.Errorf("dump out of order: %d after %d", rec.Seq, last)
					return
				}
				last = rec.Seq
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if got := fr.Recorded(); got != 4*20000 {
		t.Fatalf("recorded %d want %d", got, 4*20000)
	}
}

// TestFlightRecorderZeroAlloc guards the hot path.
func TestFlightRecorderZeroAlloc(t *testing.T) {
	fr := NewFlightRecorder(256)
	rec := FlitRecord{Kind: 2, Addr: 42}
	if avg := testing.AllocsPerRun(1000, func() { fr.Record(rec) }); avg != 0 {
		t.Fatalf("Record allocates %.1f allocs/op, want 0", avg)
	}
}

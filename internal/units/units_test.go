package units

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSizeString(t *testing.T) {
	cases := []struct {
		in   Size
		want string
	}{
		{64, "64B"},
		{KiB, "1KiB"},
		{64 * GiB, "64GiB"},
		{16 * GiB, "16GiB"},
		{3 * MiB, "3MiB"},
		{TiB, "1TiB"},
		{1500, "1500B"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Size(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBandwidthConstructors(t *testing.T) {
	b := GBps(22.0)
	if got := b.GBps(); got != 22.0 {
		t.Errorf("GBps round-trip = %v, want 22", got)
	}
	if got := b.MBps(); got != 22000.0 {
		t.Errorf("MBps = %v, want 22000", got)
	}
	if s := b.String(); s != "22.00 GB/s" {
		t.Errorf("String = %q", s)
	}
	if s := Bandwidth(500e6).String(); s != "500.00 MB/s" {
		t.Errorf("String = %q", s)
	}
	if s := Bandwidth(12).String(); s != "12 B/s" {
		t.Errorf("String = %q", s)
	}
}

func TestLatency(t *testing.T) {
	l := Nanoseconds(95)
	if got := l.Ns(); got != 95 {
		t.Errorf("Ns = %v, want 95", got)
	}
	if got := l.Duration(); got != 95*time.Nanosecond {
		t.Errorf("Duration = %v", got)
	}
	if s := l.String(); s != "95ns" {
		t.Errorf("String = %q", s)
	}
}

func TestDDRPeak(t *testing.T) {
	// DDR5-4800: 4800 MT/s * 8 B = 38.4 GB/s per channel.
	if got := DDRPeak(4800).GBps(); got != 38.4 {
		t.Errorf("DDR5-4800 peak = %v GB/s, want 38.4", got)
	}
	// DDR4-1333 (the paper's FPGA DIMMs): 10.664 GB/s.
	got := DDRPeak(1333).GBps()
	if got < 10.6 || got > 10.7 {
		t.Errorf("DDR4-1333 peak = %v GB/s, want ~10.66", got)
	}
}

func TestTimeForAndRateOf(t *testing.T) {
	d := TimeFor(GB, GBps(1))
	if d != time.Second {
		t.Errorf("TimeFor(1GB, 1GB/s) = %v, want 1s", d)
	}
	if got := TimeFor(0, GBps(1)); got != 0 {
		t.Errorf("TimeFor(0) = %v, want 0", got)
	}
	if got := TimeFor(GB, 0); got != 0 {
		t.Errorf("TimeFor(bw=0) = %v, want 0", got)
	}
	r := RateOf(2*GB, time.Second)
	if r.GBps() != 2 {
		t.Errorf("RateOf = %v, want 2 GB/s", r.GBps())
	}
	if got := RateOf(GB, 0); got != 0 {
		t.Errorf("RateOf(d=0) = %v, want 0", got)
	}
}

// TimeFor and RateOf are inverses up to rounding error.
func TestTimeRateRoundTrip(t *testing.T) {
	f := func(nRaw int32, gbps uint8) bool {
		// Mask (not mod) so negative inputs cannot shrink n below
		// 1 GiB, where nanosecond quantisation of the duration alone
		// exceeds the 1e-6 tolerance.
		n := Size(int64(nRaw)&(1<<30-1) + (1 << 30)) // 1..2 GiB
		b := GBps(float64(gbps%100) + 1)             // 1..100 GB/s
		d := TimeFor(n, b)
		back := RateOf(n, d)
		rel := (float64(back) - float64(b)) / float64(b)
		return rel < 1e-6 && rel > -1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransferRateString(t *testing.T) {
	if s := TransferRate(4800).String(); s != "4800MT/s" {
		t.Errorf("String = %q", s)
	}
}

// Package units provides the physical quantities used throughout the
// simulator: byte sizes, bandwidths, latencies and transfer rates.
//
// All quantities are strongly typed so that a bandwidth can never be
// accidentally added to a latency, and all carry String methods producing
// the same unit conventions the paper uses (GB/s in decimal gigabytes,
// latencies in nanoseconds, DIMM speeds in MT/s).
package units

import (
	"fmt"
	"time"
)

// Size is a byte count.
type Size int64

// Common sizes. The paper (and STREAM) use decimal GB for bandwidth but
// binary capacities for DIMMs; we keep both.
const (
	KiB Size = 1 << 10
	MiB Size = 1 << 20
	GiB Size = 1 << 30
	TiB Size = 1 << 40

	GB Size = 1e9
)

// CacheLine is the transfer granule of every memory device and link model:
// a 64-byte line, as on the paper's Sapphire Rapids and Xeon Gold hosts.
const CacheLine Size = 64

// Bytes returns the size as an int64.
func (s Size) Bytes() int64 { return int64(s) }

// String formats the size with a binary suffix for capacities.
func (s Size) String() string {
	switch {
	case s >= TiB && s%TiB == 0:
		return fmt.Sprintf("%dTiB", s/TiB)
	case s >= GiB && s%GiB == 0:
		return fmt.Sprintf("%dGiB", s/GiB)
	case s >= MiB && s%MiB == 0:
		return fmt.Sprintf("%dMiB", s/MiB)
	case s >= KiB && s%KiB == 0:
		return fmt.Sprintf("%dKiB", s/KiB)
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// GBps constructs a bandwidth from decimal gigabytes per second, the unit
// STREAM reports ("Best Rate MB/s" scaled by 1000).
func GBps(v float64) Bandwidth { return Bandwidth(v * 1e9) }

// GBps reports the bandwidth in decimal gigabytes per second.
func (b Bandwidth) GBps() float64 { return float64(b) / 1e9 }

// MBps reports the bandwidth in decimal megabytes per second.
func (b Bandwidth) MBps() float64 { return float64(b) / 1e6 }

// String formats the bandwidth the way the paper's figures label their
// y-axes.
func (b Bandwidth) String() string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB/s", b.GBps())
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB/s", b.MBps())
	default:
		return fmt.Sprintf("%.0f B/s", float64(b))
	}
}

// Latency is a one-way access latency.
type Latency time.Duration

// Nanoseconds constructs a latency from nanoseconds.
func Nanoseconds(ns float64) Latency { return Latency(ns * float64(time.Nanosecond)) }

// Ns reports the latency in nanoseconds.
func (l Latency) Ns() float64 { return float64(l) / float64(time.Nanosecond) }

// Duration converts to a time.Duration.
func (l Latency) Duration() time.Duration { return time.Duration(l) }

func (l Latency) String() string { return fmt.Sprintf("%.0fns", l.Ns()) }

// TransferRate is a DIMM or link signalling rate in mega-transfers per
// second (e.g. DDR5-4800 is 4800 MT/s).
type TransferRate int

func (r TransferRate) String() string { return fmt.Sprintf("%dMT/s", int(r)) }

// DDRPeak returns the theoretical peak bandwidth of a DDR channel at the
// given rate: rate × 8 bytes per transfer (64-bit bus).
func DDRPeak(rate TransferRate) Bandwidth {
	return Bandwidth(float64(rate) * 1e6 * 8)
}

// TimeFor returns how long moving n bytes takes at bandwidth b.
// A zero or negative bandwidth yields zero duration; callers must guard
// against interpreting that as "instant" where it matters.
func TimeFor(n Size, b Bandwidth) time.Duration {
	if b <= 0 || n <= 0 {
		return 0
	}
	sec := float64(n) / float64(b)
	return time.Duration(sec * float64(time.Second))
}

// RateOf returns the bandwidth achieved moving n bytes in d.
func RateOf(n Size, d time.Duration) Bandwidth {
	if d <= 0 {
		return 0
	}
	return Bandwidth(float64(n) / d.Seconds())
}

package chaos

import (
	"encoding/binary"
	"testing"
	"time"

	"cxlpmem/internal/cxl"
)

// decodePlan turns arbitrary fuzz bytes into a plan — deliberately NOT
// forced valid, so the fuzzer exercises both validate's rejections and
// the engine's behaviour under every plan that survives them. Delays
// are clamped so a surviving plan always runs in bounded time.
func decodePlan(data []byte) Plan {
	p := Plan{}
	if len(data) < 8 {
		return p
	}
	p.Seed = binary.LittleEndian.Uint64(data)
	data = data[8:]
	const ruleBytes = 16
	for len(data) >= ruleBytes && len(p.Rules) < 4 {
		b := data[:ruleBytes]
		data = data[ruleBytes:]
		r := Rule{
			Site:   Site(b[0] % 8),    // may exceed the valid range
			Action: Action(b[1] % 12), // ditto
			Trigger: Trigger{
				Nth:    uint64(b[2] % 8),
				Every:  uint64(b[3] % 8),
				Prob:   float64(b[4]) / 255,
				Count:  uint64(b[5] % 5),
				Kind:   int16(b[6]%8) - 1,
				Op:     binary.LittleEndian.Uint16(b[7:9]),
				AddrLo: uint64(binary.LittleEndian.Uint16(b[9:11])) &^ 63,
			},
			Delay: time.Duration(b[13]%3) * 500 * time.Microsecond,
		}
		if span := uint64(binary.LittleEndian.Uint16(b[11:13])); span > 0 {
			r.Trigger.AddrHi = r.Trigger.AddrLo + (span &^ 63) + 64
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// FuzzChaosPlan: any plan that passes validate must run a small
// workload to completion — no panic, no deadlock, no error other than
// the fault-induced ones — and replay deterministically.
func FuzzChaosPlan(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 8+2*16)
	binary.LittleEndian.PutUint64(seed, 0xC0FFEE)
	seed[8] = 0     // SitePort
	seed[9] = 0     // ActCorrupt
	seed[11] = 3    // Every=3
	seed[8+16] = 1  // SiteLink
	seed[9+16] = 4  // ActFlap
	seed[10+16] = 2 // Nth=2
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		plan := decodePlan(data)
		if err := plan.validate(); err != nil {
			return
		}
		if len(plan.Rules) == 0 {
			return
		}

		done := make(chan string, 1)
		go func() {
			eng, err := NewEngine(plan)
			if err != nil {
				done <- "engine: " + err.Error()
				return
			}
			rp, dev := chaosPort(t, "fuzz")
			mb, err := cxl.NewMailbox(dev, "fuzz-fw")
			if err != nil {
				done <- "mailbox: " + err.Error()
				return
			}
			eng.AttachPort(rp)
			eng.AttachMailbox(dev.Name(), mb)
			eng.AttachMedia(dev.Name(), func(dpa uint64) error { return nil })
			eng.AttachDevice(dev)
			defer eng.Disarm()

			var line [cxl.LineSize]byte
			for i := 0; i < 30; i++ {
				// Fault-induced errors are fine; hangs and panics are not.
				_ = rp.WriteLine(uint64((i%16)*cxl.LineSize), &line)
				if i%10 == 0 {
					_, _ = mb.ExecuteTimeout(cxl.OpGetHealthInfo, nil, 20*time.Millisecond)
					eng.Pulse()
				}
			}
			done <- ""
		}()
		select {
		case msg := <-done:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("chaos plan wedged the workload: watchdog expired")
		}
	})
}

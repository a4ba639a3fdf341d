package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// tinyConfig runs a workload for a handful of ops.
func tinyConfig(trace bool) config {
	return config{seed: 7, trace: trace, maxOps: 4, rounds: 5}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// Every workload runs, verifies, and prints every metric BENCHMARK.json
// declares, by name and with its unit, in both modes; every workload the
// file lists exists.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := specFor(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			var out bytes.Buffer
			rep, err := execute(sp, tinyConfig(traced), &out)
			if err != nil || rep == nil || !rep.Correct {
				t.Fatalf("%s trace=%t: %v\n%s", sp.name, traced, err, out.String())
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%t: attempted %d failed %d", sp.name, traced, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics reported, BENCHMARK.json declares %d", sp.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", sp.name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, m.Name, got.Value)
				}
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+-?[0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
				if !line.Match(out.Bytes()) {
					t.Errorf("%s trace=%t: no printed line for %s in %s", sp.name, traced, m.Name, m.Unit)
				}
			}
			var line bytes.Buffer
			emit(rep, &line)
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &keys); err != nil || len(keys) != 4 ||
				keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("%s trace=%t: result line %s", sp.name, traced, line.String())
			}
		}
	}
}

// The verifiers read the media, not the benchmark's own copy: a byte
// flipped on the card's media inside a pool object fails them.
func TestVerifierCatchesFlippedMediaByte(t *testing.T) {
	for _, name := range []string{"tx-small", "checkpoint-4way"} {
		t.Run(name, func(t *testing.T) {
			sp, _ := specFor(name)
			cfg := tinyConfig(false)
			e, f, _, err := setUp(sp, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			if _, err := measure(sp, cfg, e, f, nil); err != nil {
				t.Fatal(err)
			}
			if err := f.verify(); err != nil {
				t.Fatalf("clean run fails verification: %v", err)
			}
			// The pool is the mount's first file, so pool offsets are
			// node offsets.
			var off int64
			switch f := f.(type) {
			case *txFlow:
				off = int64(f.oids[txObjects/2].Off) + 17
			case *ckptFlow:
				// The latest snapshot's first chunk, wherever the
				// allocator put it.
				pool := make([]byte, ckptPoolSize)
				if err := e.node.DataPath().ReadAt(pool, 0); err != nil {
					t.Fatal(err)
				}
				i := bytes.Index(pool, f.state[:4096])
				if i < 0 || bytes.Index(pool[i+1:], f.state[:4096]) >= 0 {
					t.Fatalf("latest chunk 0 found at %d, want exactly one copy", i)
				}
				off = int64(i) + 100
			}
			media, dpa, err := e.mediaAt(off)
			if err != nil {
				t.Fatal(err)
			}
			var b [1]byte
			if err := media.ReadAt(b[:], dpa); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x5a
			if err := media.WriteAt(b[:], dpa); err != nil {
				t.Fatal(err)
			}
			if err := f.verify(); err == nil {
				t.Fatal("verification passed with a flipped media byte")
			} else {
				t.Logf("caught: %v", err)
			}
		})
	}
}

// The seed alone decides the op sequence.
func TestSeedDeterminesOpSequence(t *testing.T) {
	digest := func(name string, seed uint64) [32]byte {
		sp, _ := specFor(name)
		e, f, _, err := setUp(sp, config{seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		for i := 0; i < 20; i++ {
			if err := f.prepare(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.run(); err != nil {
				t.Fatal(err)
			}
		}
		switch f := f.(type) {
		case *txFlow:
			return sha256.Sum256(f.shadow)
		case *ckptFlow:
			return sha256.Sum256(f.state)
		}
		t.Fatalf("no digest for %s", name)
		return [32]byte{}
	}
	for _, name := range []string{"tx-small", "checkpoint-4way"} {
		a, b, c := digest(name, 1), digest(name, 1), digest(name, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave two different op sequences", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", name)
		}
	}
}

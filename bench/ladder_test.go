package main

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// Rungs are called one each per round, starting one rung later every
// round and aimed at the round's slot, and each rung reports the mean of
// the middle half of its own samples.
func TestLadderRoundRobinMidMeans(t *testing.T) {
	var clock int64
	var order []string
	var slotsSeen []int
	names := []string{"a", "b", "c"}
	costs := map[string]int64{"a": 100, "b": 30, "c": 7}
	calls := 0
	var rungs []rung
	for _, name := range names {
		r := rung{name: name}
		for k := range r.call {
			r.call[k] = func(slot int) error {
				calls++
				slotsSeen = append(slotsSeen, slot)
				cost := costs[name] * int64(k+1)
				if name == "a" && calls%17 == 0 {
					cost *= 50 // an outlier the mid-mean must ignore
				}
				clock += cost
				order = append(order, name)
				return nil
			}
		}
		rungs = append(rungs, r)
	}
	const rounds, slots = 9, 2
	lad, err := timeLadder(rungs, slots, rounds, func() int64 { return clock })
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range costs {
		for k := 0; k < numKinds; k++ {
			if got, want := lad[name][k], float64(c*int64(k+1)); got != want {
				t.Errorf("%s %s mid-mean = %v, want %v", name, kindNames[k], got, want)
			}
		}
	}
	// A warm-up pass per slot, then the timed rounds; within a round
	// each kind visits every rung once.
	perRound := numKinds * len(names)
	if len(order) != (slots+rounds)*perRound {
		t.Fatalf("%d calls, want %d", len(order), (slots+rounds)*perRound)
	}
	for i, s := range slotsSeen[:slots*perRound] {
		if s != i/perRound {
			t.Fatalf("warm-up call %d aimed at slot %d, want %d", i, s, i/perRound)
		}
	}
	for r := 0; r < rounds; r++ {
		want := append(slices.Clone(names[r%3:]), names[:r%3]...)
		for k := 0; k < numKinds; k++ {
			at := (slots+r)*perRound + k*len(names)
			if got := order[at : at+len(names)]; !slices.Equal(got, want) {
				t.Errorf("round %d kind %s called %v, want %v", r, kindNames[k], got, want)
			}
			for _, s := range slotsSeen[at : at+len(names)] {
				if s != r%slots {
					t.Errorf("round %d aimed at slot %d, want %d", r, s, r%slots)
				}
			}
		}
	}
}

func TestLadderReportsFailingRung(t *testing.T) {
	boom := errors.New("boom")
	r := rung{name: "device"}
	for k := range r.call {
		r.call[k] = func(int) error { return nil }
	}
	r.call[k4kWrite] = func(int) error { return boom }
	_, err := timeLadder([]rung{r}, 1, 3, func() int64 { return 0 })
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "device 4k.write") {
		t.Fatalf("err = %v", err)
	}
}

// timeLadder times rounds rounds of rungs in one go.
func timeLadder(rungs []rung, slots, rounds int, clock func() int64) (ladder, error) {
	lt, err := newLadderTimer(rungs, slots, clock)
	if err != nil {
		return nil, err
	}
	if err := lt.run(rounds); err != nil {
		return nil, err
	}
	return lt.midMeans(), nil
}

package main

import (
	"testing"
)

func TestScheduleDeterminism(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, err := generate(wl, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(wl, 7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := generate(wl, 8)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest() != b.digest() {
				t.Errorf("seed 7 gave two schedules: %s and %s", a.digest(), b.digest())
			}
			if a.digest() == c.digest() {
				t.Errorf("seeds 7 and 8 gave the same schedule %s", a.digest())
			}
		})
	}
}

// TestChurnRanksMissPattern replays the rank sequence through an LRU of the
// registry's capacity: after the settle prefix, exactly every
// churnMissEvery-th predict misses.
func TestChurnRanksMissPattern(t *testing.T) {
	settle, ranks := churnRanks(400)
	var lru []int
	get := func(r int) (hit bool) {
		for i, x := range lru {
			if x == r {
				lru = append(lru[:i], lru[i+1:]...)
				hit = true
				break
			}
		}
		lru = append([]int{r}, lru...)
		if len(lru) > churnCap {
			lru = lru[:churnCap]
		}
		return hit
	}
	distinct := map[int]bool{}
	for _, r := range settle {
		distinct[r] = true
		get(r)
	}
	if len(distinct) != churnCap {
		t.Fatalf("settle prefix holds %d distinct keys, want %d", len(distinct), churnCap)
	}
	uses := map[int]int{}
	for p, r := range ranks {
		uses[r]++
		wantMiss := p%churnMissEvery == churnMissEvery-1
		if hit := get(r); hit == wantMiss {
			t.Fatalf("position %d (rank %d): hit=%v, want miss=%v", p, r, hit, wantMiss)
		}
	}
	if len(uses) != len(churnKeys) || uses[0] <= uses[len(churnKeys)-1] {
		t.Errorf("popularity by rank %v: want every key used, rank 0 most", uses)
	}
}

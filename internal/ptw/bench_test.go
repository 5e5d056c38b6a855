package ptw

import (
	"math/rand"
	"testing"

	"pccsim/internal/mem"
)

// BenchmarkWalk measures a full table walk with warm PWC.
func BenchmarkWalk(b *testing.B) {
	t := NewTable()
	w := NewWalker()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]mem.VirtAddr, 1<<12)
	for i := range addrs {
		addrs[i] = mem.VirtAddr(rng.Intn(1<<18)) << 12
		t.Map(addrs[i], mem.Page4K)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Walk(t, addrs[i%len(addrs)])
	}
}

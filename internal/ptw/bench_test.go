package ptw

import (
	"math/rand"
	"testing"

	"pccsim/internal/mem"
)

// BenchmarkWalk measures walks of random 4KB pages with warm PWC.
func BenchmarkWalk(b *testing.B) {
	w := NewWalker()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]mem.VirtAddr, 1<<12)
	for i := range addrs {
		addrs[i] = mem.VirtAddr(rng.Intn(1<<18)) << 12
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Walk(addrs[i%len(addrs)], mem.Page4K)
	}
}

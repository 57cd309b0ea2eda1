package store

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkWALAppend times LogUpdate appending 16-edge insert batches (the
// churn workloads' update size) under the two extreme sync policies:
// FsyncNone measures the record encoding and the buffered write,
// FsyncAlways adds one fsync per batch. It reports ns/op, B/op and the WAL
// bytes each record adds (wal-B/op).
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []string{FsyncNone, FsyncAlways} {
		b.Run(policy, func(b *testing.B) {
			st, _, err := Open(b.TempDir(), Options{Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			l, err := st.CreateGraph("bench", []byte(`{"omega":64}`))
			if err != nil {
				b.Fatal(err)
			}
			rng := graph.NewRNG(1)
			batch := make([][2]int32, 16)
			for i := range batch {
				batch[i] = [2]int32{int32(rng.Intn(1 << 16)), int32(rng.Intn(1 << 16))}
			}
			before := l.bytesSinceSnap
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.LogUpdate(int64(i+1), batch, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(l.bytesSinceSnap-before)/float64(b.N), "wal-B/op")
		})
	}
}

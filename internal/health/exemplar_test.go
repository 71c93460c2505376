package health

import (
	"testing"
	"time"
)

func TestExemplars(t *testing.T) {
	ex := NewExemplars()
	if _, ok := ex.Get("service"); ok {
		t.Fatal("empty store returned an exemplar")
	}
	ex.Observe("service", "j-0001", "aaaa")
	ex.Observe("service", "j-0002", "bbbb")
	got, ok := ex.Get("service")
	if !ok || got.JobID != "j-0002" || got.TraceID != "bbbb" {
		t.Fatalf("Get = %+v ok=%v, want latest j-0002", got, ok)
	}
	if got.At.IsZero() || time.Since(got.At) > time.Minute {
		t.Fatalf("exemplar timestamp not set: %v", got.At)
	}
}

// BenchmarkExemplarsObserve is the per-job cost of feeding the store.
func BenchmarkExemplarsObserve(b *testing.B) {
	ex := NewExemplars()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex.Observe("tenant:interactive", "j-0001", "aaaa")
	}
}

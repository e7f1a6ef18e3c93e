package experiments

import "testing"

func TestE15VerifyScalingShape(t *testing.T) {
	tb := seed1Table("E15")
	if len(tb.Rows) != 12 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	// Row layout: 3 pipelines per density; densest block is rows 9..11.
	fifoDense, prioDense := 9, 10
	// Both software pipelines saturate at 100 vehicles...
	if cellF(t, tb, fifoDense, 4) == 0 || cellF(t, tb, prioDense, 4) == 0 {
		t.Fatalf("software pipelines never dropped at 100 vehicles\n%s", tb)
	}
	// ...but FIFO loses near (safety-relevant) messages while the
	// prioritized pipeline protects them completely.
	if cellF(t, tb, fifoDense, 5) == 0 {
		t.Fatalf("FIFO lost no near messages\n%s", tb)
	}
	if cellF(t, tb, prioDense, 5) != 0 {
		t.Fatalf("priority pipeline lost near messages\n%s", tb)
	}
	// Near p99: priority ≪ FIFO under saturation.
	if cellF(t, tb, prioDense, 6)*5 > cellF(t, tb, fifoDense, 6) {
		t.Fatalf("priority near p99 not much better\n%s", tb)
	}
	// The accelerated pipeline never drops.
	for _, row := range []int{2, 5, 8, 11} {
		if cellF(t, tb, row, 4) != 0 {
			t.Fatalf("accelerated pipeline dropped (row %d)\n%s", row, tb)
		}
	}
	// At low density nothing drops anywhere.
	for row := 0; row < 3; row++ {
		if cellF(t, tb, row, 4) != 0 {
			t.Fatalf("drops at 10 vehicles\n%s", tb)
		}
	}
}

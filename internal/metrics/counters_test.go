package metrics

import (
	"sync"
	"testing"
)

func TestCounterRegistry(t *testing.T) {
	c := GetCounter("test_counter_a")
	if GetCounter("test_counter_a") != c {
		t.Fatal("GetCounter not idempotent")
	}
	c.Inc()
	c.Add(4)
	if got := CounterValue("test_counter_a"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := CounterValue("never_registered"); got != 0 {
		t.Fatalf("unregistered counter = %d, want 0", got)
	}
}

func TestCountersWithPrefix(t *testing.T) {
	GetCounter("pfx_test_one").Add(3)
	GetCounter("pfx_test_two").Add(7)
	GetCounter("other_test_counter").Inc()
	got := CountersWithPrefix("pfx_test_")
	if len(got) != 2 || got["pfx_test_one"] != 3 || got["pfx_test_two"] != 7 {
		t.Fatalf("CountersWithPrefix = %v, want pfx_test_one:3 pfx_test_two:7", got)
	}
	if len(CountersWithPrefix("no_such_prefix_")) != 0 {
		t.Fatal("unmatched prefix returned counters")
	}
}

func TestCounterConcurrent(t *testing.T) {
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := GetCounter("test_counter_b")
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := CounterValue("test_counter_b"); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

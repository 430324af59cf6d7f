package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// faultCounts gives c its own registry and returns a reader for its
// vk_transport_faults_total{kind} counters.
func faultCounts(c *FaultyConn) func(kind string) int64 {
	reg := obs.NewRegistry()
	c.SetRecorder(reg)
	return func(kind string) int64 {
		return reg.Snapshot().Counters[obs.Labeled(obs.TransportFaults, "kind", kind)]
	}
}

// collect receives until the timeout fires and returns everything seen.
func collect(t *testing.T, c Conn, wait time.Duration) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		msg, err := c.RecvTimeout(wait)
		if err != nil {
			return out
		}
		out = append(out, msg)
	}
}

func TestFaultyPassthrough(t *testing.T) {
	a, b := FaultyPair(FaultConfig{}, rng.New(1))
	defer a.Close()
	defer b.Close()
	count := faultCounts(a)
	for i := 0; i < 10; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, 20*time.Millisecond)
	if len(got) != 10 {
		t.Fatalf("zero-fault config delivered %d/10", len(got))
	}
	for i, m := range got {
		if m[0] != byte(i) {
			t.Fatalf("message %d reordered or corrupted: %v", i, m)
		}
	}
	if got := count("delivered"); got != 10 {
		t.Fatalf("delivered counter = %d, want 10", got)
	}
	for _, kind := range []string{"dropped", "duplicated", "reordered", "corrupted", "delayed"} {
		if got := count(kind); got != 0 {
			t.Fatalf("zero-fault config counted %d %s", got, kind)
		}
	}
}

func TestFaultyDropRate(t *testing.T) {
	const n = 2000
	a, b := FaultyPair(FaultConfig{Drop: 0.25}, rng.New(7))
	defer a.Close()
	defer b.Close()
	count := faultCounts(a)
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("m%04d", i))); err != nil {
			t.Fatal(err)
		}
		// Drain as we go so the in-memory buffer never backpressures.
		for {
			if _, err := b.RecvTimeout(0); err != nil {
				break
			}
		}
	}
	dropped, delivered := count("dropped"), count("delivered")
	if dropped < n/5 || dropped > n/3 {
		t.Fatalf("dropped %d of %d, far from 25%%", dropped, n)
	}
	if delivered != n-dropped {
		t.Fatalf("delivered %d + dropped %d != sent %d", delivered, dropped, n)
	}
}

func TestFaultyDeterministicSchedule(t *testing.T) {
	// Same seed, same message sequence ⇒ byte-identical delivery schedule.
	run := func(seed int64) [][]byte {
		a, b := FaultyPair(FaultConfig{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2, Corrupt: 0.1}, rng.New(seed))
		defer a.Close()
		defer b.Close()
		var got [][]byte
		for i := 0; i < 200; i++ {
			if err := a.Send([]byte(fmt.Sprintf("msg-%03d", i))); err != nil {
				t.Fatal(err)
			}
			// Drain as we go: receiving draws nothing from the fault
			// source, so this cannot perturb the schedule.
			for {
				msg, err := b.RecvTimeout(0)
				if err != nil {
					break
				}
				got = append(got, msg)
			}
		}
		return append(got, collect(t, b, 10*time.Millisecond)...)
	}
	first, second := run(42), run(42)
	if len(first) != len(second) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("same seed diverged at delivery %d: %q vs %q", i, first[i], second[i])
		}
	}
	other := run(43)
	same := len(other) == len(first)
	if same {
		for i := range first {
			if !bytes.Equal(first[i], other[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestFaultyReorderSwapsAdjacent(t *testing.T) {
	// Reorder=1 with two messages: the first is held, the second send
	// releases it after itself — an adjacent swap.
	a, b := FaultyPair(FaultConfig{Reorder: 1}, rng.New(3))
	defer b.Close()
	count := faultCounts(a)
	a.Send([]byte("first"))
	a.Send([]byte("second"))
	got := collect(t, b, 20*time.Millisecond)
	if len(got) != 2 || string(got[0]) != "second" || string(got[1]) != "first" {
		t.Fatalf("want [second first], got %q", got)
	}
	if count("reordered") == 0 {
		t.Fatal("reorder not counted")
	}
	a.Close()
}

func TestFaultyCloseFlushesHeld(t *testing.T) {
	a, b := FaultyPair(FaultConfig{Reorder: 1}, rng.New(4))
	defer b.Close()
	a.Send([]byte("held"))
	a.Close()
	got, err := b.RecvTimeout(100 * time.Millisecond)
	if err != nil || string(got) != "held" {
		t.Fatalf("held message lost on close: %q %v", got, err)
	}
}

func TestFaultyDuplicate(t *testing.T) {
	a, b := FaultyPair(FaultConfig{Duplicate: 1}, rng.New(5))
	defer a.Close()
	defer b.Close()
	a.Send([]byte("x"))
	got := collect(t, b, 20*time.Millisecond)
	if len(got) != 2 || string(got[0]) != "x" || string(got[1]) != "x" {
		t.Fatalf("want two copies, got %q", got)
	}
}

func TestFaultyCorrupt(t *testing.T) {
	a, b := FaultyPair(FaultConfig{Corrupt: 1}, rng.New(6))
	defer a.Close()
	defer b.Close()
	msg := bytes.Repeat([]byte("payload."), 8)
	a.Send(msg)
	got, err := b.RecvTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("corrupt=1 delivered an intact message")
	}
	if len(got) != len(msg) {
		t.Fatalf("corruption changed length: %d vs %d", len(got), len(msg))
	}
}

func TestFaultyDelay(t *testing.T) {
	a, b := FaultyPair(FaultConfig{Delay: 1, MaxDelay: 20 * time.Millisecond}, rng.New(8))
	defer a.Close()
	defer b.Close()
	count := faultCounts(a)
	a.Send([]byte("late"))
	got, err := b.RecvTimeout(500 * time.Millisecond)
	if err != nil || string(got) != "late" {
		t.Fatalf("delayed message never arrived: %q %v", got, err)
	}
	if got := count("delayed"); got != 1 {
		t.Fatalf("delayed counter = %d, want 1", got)
	}
}

func TestFaultyConcurrent(t *testing.T) {
	// Both directions faulted, both ends sending and receiving from
	// separate goroutines: must be race-clean (run under -race).
	a, b := FaultyPair(FaultConfig{Drop: 0.2, Duplicate: 0.2, Reorder: 0.2, Corrupt: 0.1}, rng.New(9))
	count := faultCounts(a)
	var senders, receivers sync.WaitGroup
	done := make(chan struct{})
	senders.Add(2)
	receivers.Add(2)
	send := func(c Conn) {
		defer senders.Done()
		for i := 0; i < 200; i++ {
			c.Send([]byte{byte(i)})
		}
	}
	recv := func(c Conn) {
		defer receivers.Done()
		for {
			if _, err := c.RecvTimeout(10 * time.Millisecond); err != nil {
				// Keep draining until the senders are finished, so a
				// momentary silence never strands a blocked sender.
				select {
				case <-done:
					return
				default:
				}
			}
		}
	}
	go send(a)
	go send(b)
	go recv(a)
	go recv(b)
	senders.Wait()
	close(done)
	receivers.Wait()
	// Every send is dropped or delivered once (plus any duplicate); a
	// message still held by a reorder fault is delivered by Close.
	a.Close()
	b.Close()
	if got := count("dropped") + count("delivered") - count("duplicated"); got != 200 {
		t.Fatalf("fault counters account for %d of 200 sends", got)
	}
}

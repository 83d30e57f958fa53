package units

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTransmitTimeKnownValues(t *testing.T) {
	cases := []struct {
		rate BitRate
		size ByteSize
		want time.Duration
	}{
		// The calibration point from §III-B of the paper: a 1250-byte
		// packet on a 10 Mbit/s link serializes in exactly 1 ms.
		{10 * Mbps, 1250 * Byte, time.Millisecond},
		{100 * Mbps, 1250 * Byte, 100 * time.Microsecond},
		{384 * Kbps, 48 * KB, time.Second},
		{1 * Mbps, 125 * KB, time.Second},
		{512 * Kbps, 1250 * Byte, 19531250 * time.Nanosecond},
	}
	for _, c := range cases {
		if got := c.rate.TransmitTime(c.size); got != c.want {
			t.Errorf("TransmitTime(%v, %v) = %v, want %v", c.rate, c.size, got, c.want)
		}
	}
}

func TestTransmitTimeZeroRate(t *testing.T) {
	if got := BitRate(0).TransmitTime(KB); got < time.Hour {
		t.Errorf("zero rate should yield effectively infinite time, got %v", got)
	}
	if got := BitRate(-5).TransmitTime(KB); got < time.Hour {
		t.Errorf("negative rate should yield effectively infinite time, got %v", got)
	}
}

func TestRateOf(t *testing.T) {
	if got := RateOf(48*KB, time.Second); got != 384*Kbps {
		t.Errorf("RateOf(48KB, 1s) = %v, want 384kbps", got)
	}
	if got := RateOf(KB, 0); got != 0 {
		t.Errorf("RateOf with zero duration = %v, want 0", got)
	}
}

// Round trip: for rates and sizes in the simulator's realistic envelope,
// transmitting for TransmitTime(size) delivers size bytes back (within the
// one-byte truncation of integer arithmetic).
func TestTransmitRoundTripProperty(t *testing.T) {
	f := func(rateKbps uint16, sizeKB uint16) bool {
		rate := BitRate(int64(rateKbps)+1) * Kbps
		size := ByteSize(int64(sizeKB)+1) * KB
		d := rate.TransmitTime(size)
		back := int64(rate) * int64(d) / int64(time.Second) / 8 // whole bytes delivered in d
		diff := int64(size) - back
		return diff >= 0 && diff <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TransmitTime is monotone in size and antitone in rate.
func TestTransmitTimeMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		r := BitRate(rng.Int63n(int64(Gbps))) + Kbps
		s1 := ByteSize(rng.Int63n(int64(MB))) + 1
		s2 := s1 + ByteSize(rng.Int63n(int64(MB)))
		if r.TransmitTime(s1) > r.TransmitTime(s2) {
			t.Fatalf("TransmitTime not monotone in size: r=%v s1=%v s2=%v", r, s1, s2)
		}
		r2 := r + BitRate(rng.Int63n(int64(Mbps)))
		if r2.TransmitTime(s1) > r.TransmitTime(s1) {
			t.Fatalf("TransmitTime not antitone in rate: r=%v r2=%v s=%v", r, r2, s1)
		}
	}
}

func TestAccessSpecString(t *testing.T) {
	a := AccessSpec{Down: 6 * Mbps, Up: 512 * Kbps}
	if got := a.String(); got != "6/0.512" {
		t.Errorf("String() = %q, want 6/0.512", got)
	}
}

func TestSymmetric(t *testing.T) {
	a := Symmetric(100 * Mbps)
	if a.Up != a.Down || a.Up != 100*Mbps {
		t.Errorf("Symmetric(100Mbps) = %+v", a)
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		in   string
		rate BitRate
	}{
		{"384.00Kbps", 384 * Kbps},
		{"10.00Mbps", 10 * Mbps},
		{"1.00Gbps", Gbps},
		{"12bps", 12},
	}
	for _, c := range cases {
		if got := c.rate.String(); got != c.in {
			t.Errorf("String() = %q, want %q", got, c.in)
		}
	}
	sizes := []struct {
		want string
		size ByteSize
	}{
		{"48.00KB", 48 * KB},
		{"3.00MB", 3 * MB},
		{"2.50GB", 2500 * MB},
		{"999B", 999},
	}
	for _, c := range sizes {
		if got := c.size.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// Package units provides the small value types shared by every layer of the
// simulator: bit rates, byte sizes and the conversions between them and
// simulated time.
//
// Keeping these as distinct named types (rather than bare int64) catches the
// classic bandwidth-arithmetic mistakes — mixing bits with bytes, or rates
// with volumes — at compile time, which matters in a codebase whose whole
// point is inferring link capacity from packet spacing.
package units

import (
	"fmt"
	"time"
)

// BitRate is a link or stream rate in bits per second.
type BitRate int64

// Common bit-rate scales. The paper quotes all rates in kbit/s and Mbit/s
// (decimal, as ISPs do), so these use powers of ten.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1000 * BitPerSecond
	Mbps                 = 1000 * Kbps
	Gbps                 = 1000 * Mbps
)

// ByteSize is a data volume in bytes.
type ByteSize int64

// Common byte-size scales (decimal, matching the rate scales so that
// rate×time → volume round-trips exactly).
const (
	Byte ByteSize = 1
	KB            = 1000 * Byte
	MB            = 1000 * KB
	GB            = 1000 * MB
)

// Bits reports the volume in bits.
func (s ByteSize) Bits() int64 { return int64(s) * 8 }

// String renders the size with a human-readable suffix.
func (s ByteSize) String() string {
	switch {
	case s >= GB:
		return fmt.Sprintf("%.2fGB", float64(s)/float64(GB))
	case s >= MB:
		return fmt.Sprintf("%.2fMB", float64(s)/float64(MB))
	case s >= KB:
		return fmt.Sprintf("%.2fKB", float64(s)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(s))
}

// String renders the rate with a human-readable suffix.
func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2fGbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.2fMbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.2fKbps", float64(r)/float64(Kbps))
	}
	return fmt.Sprintf("%dbps", int64(r))
}

// TransmitTime reports how long a link at rate r needs to serialize size
// bytes. A zero or negative rate yields an infinite-like maximal duration so
// that a misconfigured link blocks visibly instead of dividing by zero.
func (r BitRate) TransmitTime(size ByteSize) time.Duration {
	if r <= 0 {
		return time.Duration(1<<62 - 1)
	}
	bits := size.Bits()
	// duration = bits / rate seconds; compute in nanoseconds without
	// overflowing for any realistic size (up to ~1 EB at 1 bps).
	sec := bits / int64(r)
	rem := bits % int64(r)
	ns := sec*int64(time.Second) + rem*int64(time.Second)/int64(r)
	return time.Duration(ns)
}

// RateOf reports the average rate that moved size bytes in d.
func RateOf(size ByteSize, d time.Duration) BitRate {
	if d <= 0 {
		return 0
	}
	return BitRate(size.Bits() * int64(time.Second) / int64(d))
}

// AccessSpec describes an asymmetric access link the way the paper's
// Table I does: "6/0.512" means 6 Mbit/s down, 0.512 Mbit/s up.
type AccessSpec struct {
	Down BitRate
	Up   BitRate
}

// String renders the spec in Table I notation.
func (a AccessSpec) String() string {
	return fmt.Sprintf("%g/%g", float64(a.Down)/float64(Mbps), float64(a.Up)/float64(Mbps))
}

// Symmetric builds an access spec with equal up and down capacity, the shape
// of the institutional "high-bw" LAN attachments in Table I.
func Symmetric(r BitRate) AccessSpec { return AccessSpec{Down: r, Up: r} }

// Package packet defines the packet-level observation record produced at
// probe hosts and a compact binary trace format (plus CSV export) for
// storing and replaying captures.
//
// A Record carries exactly what a passive sniffer at the probe's access
// link would see — timestamp, addresses, ports, payload size, TTL — plus a
// ground-truth Kind annotation that real traces do not have. The analysis
// layer must not consult Kind for inference (the paper's heuristics work
// from sizes and timing alone); Kind exists so tests can validate those
// heuristics against the truth.
package packet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"

	"napawine/internal/sim"
	"napawine/internal/units"
)

// Kind is the ground-truth role of a packet in the emulated protocol.
type Kind uint8

// Packet roles. Signaling covers buffer maps, keep-alives and peer-exchange
// gossip; Request is a chunk request; Video is chunk payload.
const (
	Signaling Kind = iota
	Request
	Video
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Signaling:
		return "signaling"
	case Request:
		return "request"
	case Video:
		return "video"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Record is one captured packet.
type Record struct {
	TS   sim.Time // capture instant at the probe
	Src  netip.Addr
	Dst  netip.Addr
	Size units.ByteSize // transport payload bytes
	TTL  uint8          // IP TTL as seen at the probe
	Kind Kind
}

// InitialTTL is the TTL every emulated peer stamps on outgoing packets. The
// paper assumes Windows hosts, whose default is 128, and infers hop counts
// as 128−TTL (§III-B).
const InitialTTL = 128

// Hops reports the router hops this packet traversed, inferred exactly the
// way the paper does.
func (r Record) Hops() int { return InitialTTL - int(r.TTL) }

const (
	magic       = "NWT1"
	recordBytes = 8 + 4 + 4 + 4 + 1 + 1 // ts, src, dst, size, ttl, kind
)

// Writer streams records to a binary trace. Close flushes; the caller owns
// closing the underlying writer if it is a file.
type Writer struct {
	bw    *bufio.Writer
	probe netip.Addr
	last  sim.Time
	count uint64
	err   error
}

// NewWriter writes the trace header for the given probe and returns the
// writer.
func NewWriter(w io.Writer, probe netip.Addr, label string) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	a := probe.As4()
	if _, err := bw.Write(a[:]); err != nil {
		return nil, err
	}
	lb := []byte(label)
	if len(lb) > 255 {
		return nil, fmt.Errorf("packet: label too long (%d bytes)", len(lb))
	}
	if err := bw.WriteByte(byte(len(lb))); err != nil {
		return nil, err
	}
	if _, err := bw.Write(lb); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, probe: probe}, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	if r.Size < 0 || r.Size > 1<<31 {
		w.err = fmt.Errorf("packet: record size %d out of range", r.Size)
		return w.err
	}
	if !r.Src.Is4() || !r.Dst.Is4() {
		w.err = fmt.Errorf("packet: record addresses must be IPv4 (src=%v dst=%v)", r.Src, r.Dst)
		return w.err
	}
	if err := checkOrder(r, w.probe, w.last); err != nil {
		w.err = fmt.Errorf("packet: record %d %w", w.count+1, err)
		return w.err
	}
	w.last = r.TS
	var buf [recordBytes]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(r.TS))
	src := r.Src.As4()
	dst := r.Dst.As4()
	copy(buf[8:12], src[:])
	copy(buf[12:16], dst[:])
	binary.LittleEndian.PutUint32(buf[16:20], uint32(r.Size))
	buf[20] = r.TTL
	buf[21] = byte(r.Kind)
	if _, err := w.bw.Write(buf[:]); err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

// Count reports how many records have been written.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes buffered records.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// checkOrder reports why a record cannot follow one stamped last in a trace
// of what the probe's capture saw: it does not involve the probe, or it runs
// time backwards (a first record against zero, where the clock starts). The
// Writer refuses such a record and the Reader reports it as ErrBadTrace, as
// the live capture panics on it.
func checkOrder(r Record, probe netip.Addr, last sim.Time) error {
	if r.Src != probe && r.Dst != probe {
		return fmt.Errorf("(%v→%v) does not involve probe %v", r.Src, r.Dst, probe)
	}
	if r.TS < last {
		return fmt.Errorf("(%v→%v) at %d ns runs back from %d ns", r.Src, r.Dst, int64(r.TS), int64(last))
	}
	return nil
}

// Reader streams records from a binary trace.
type Reader struct {
	br    *bufio.Reader
	probe netip.Addr
	label string
	last  sim.Time
	count uint64
}

// ErrBadTrace reports a malformed trace header or record.
var ErrBadTrace = errors.New("packet: malformed trace")

// NewReader parses the trace header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: short magic: %v", ErrBadTrace, err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, head)
	}
	var addr [4]byte
	if _, err := io.ReadFull(br, addr[:]); err != nil {
		return nil, fmt.Errorf("%w: short probe address", ErrBadTrace)
	}
	n, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: short label length", ErrBadTrace)
	}
	lb := make([]byte, n)
	if _, err := io.ReadFull(br, lb); err != nil {
		return nil, fmt.Errorf("%w: short label", ErrBadTrace)
	}
	return &Reader{br: br, probe: netip.AddrFrom4(addr), label: string(lb)}, nil
}

// Probe reports the probe address recorded in the header.
func (r *Reader) Probe() netip.Addr { return r.probe }

// Label reports the experiment label recorded in the header.
func (r *Reader) Label() string { return r.label }

// Next returns the next record, or io.EOF at a clean end of trace. A
// truncated record, or one the Writer refuses (a size over 2³¹ bytes, a
// record not involving the probe, a timestamp before the previous one),
// yields ErrBadTrace, so corruption never passes silently.
func (r *Reader) Next() (Record, error) {
	var buf [recordBytes]byte
	n, err := io.ReadFull(r.br, buf[:])
	if err == io.EOF && n == 0 {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, fmt.Errorf("%w: truncated record (%d bytes)", ErrBadTrace, n)
	}
	size := binary.LittleEndian.Uint32(buf[16:20])
	if size > 1<<31 {
		return Record{}, fmt.Errorf("%w: record size %d out of range", ErrBadTrace, size)
	}
	var rec Record
	rec.TS = sim.Time(binary.LittleEndian.Uint64(buf[0:8]))
	rec.Src = netip.AddrFrom4([4]byte(buf[8:12]))
	rec.Dst = netip.AddrFrom4([4]byte(buf[12:16]))
	rec.Size = units.ByteSize(size)
	rec.TTL = buf[20]
	rec.Kind = Kind(buf[21])
	if err := checkOrder(rec, r.probe, r.last); err != nil {
		return Record{}, fmt.Errorf("%w: record %d %v", ErrBadTrace, r.count+1, err)
	}
	r.last = rec.TS
	r.count++
	return rec, nil
}

// ReadAll drains the reader into a slice. Intended for tests and tools, not
// for the analysis pipeline, which streams.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// WriteCSV renders records in a human-auditable CSV with a header row,
// mirroring the fields of the binary format. It calls next (a Reader's
// Next, say) until io.EOF and holds no record past its own row, so a trace
// of any length converts in constant memory; any other error from next is
// returned as is.
func WriteCSV(w io.Writer, next func() (Record, error)) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("ts_ns,src,dst,size,ttl,kind\n"); err != nil {
		return err
	}
	for {
		r, err := next()
		if errors.Is(err, io.EOF) {
			return bw.Flush()
		}
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%d,%s,%s,%d,%d,%s\n",
			int64(r.TS), r.Src, r.Dst, int64(r.Size), r.TTL, r.Kind); err != nil {
			return err
		}
	}
}

// Package wire serializes transport packets to datagram bytes: the same
// netem.Packet the simulator passes by pointer is encoded to bytes, so the
// transport endpoints are oblivious to which network they run on.
//
// Layout (big endian):
//
//	byte    0      magic (0xQC = 0x51)
//	byte    1      flags (bit0: IsAck)
//	byte    2      flow id
//	byte    3      number of ACK ranges (ACK only)
//	int64   4..11  seq (data) / largest acked (ACK)
//	int64  12..19  ack delay in nanoseconds (ACK only)
//	ranges 20..    pairs of int64 (smallest, largest), ACK only
//	padding        data packets are padded to their on-wire Size
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
)

const (
	magic     = 0x51
	flagAck   = 1
	headerLen = 20
	rangeLen  = 16
	// MaxRanges bounds ACK size on the wire.
	MaxRanges = 32
)

// ErrShort reports a truncated datagram.
var ErrShort = errors.New("wire: datagram too short")

// ErrMagic reports a foreign datagram.
var ErrMagic = errors.New("wire: bad magic")

// Encode serializes pkt into buf and returns the number of bytes used.
// Data packets are padded to pkt.Size; buf must be at least that large
// (and at least headerLen + used ranges for ACKs).
func Encode(buf []byte, pkt *netem.Packet) (int, error) {
	need := headerLen
	nRanges := len(pkt.Ranges)
	if nRanges > MaxRanges {
		nRanges = MaxRanges
	}
	if pkt.IsAck {
		need += nRanges * rangeLen
	}
	if pkt.Size > need {
		need = pkt.Size
	}
	if len(buf) < need {
		return 0, fmt.Errorf("wire: buffer %d < %d", len(buf), need)
	}
	buf[0] = magic
	buf[1] = 0
	buf[2] = byte(pkt.Flow)
	buf[3] = 0
	if pkt.IsAck {
		buf[1] |= flagAck
		buf[3] = byte(nRanges)
		binary.BigEndian.PutUint64(buf[4:], uint64(pkt.LargestAcked))
		binary.BigEndian.PutUint64(buf[12:], uint64(pkt.AckDelay))
		off := headerLen
		for _, rg := range pkt.Ranges[:nRanges] {
			binary.BigEndian.PutUint64(buf[off:], uint64(rg.Smallest))
			binary.BigEndian.PutUint64(buf[off+8:], uint64(rg.Largest))
			off += rangeLen
		}
		return off, nil
	}
	binary.BigEndian.PutUint64(buf[4:], uint64(pkt.Seq))
	binary.BigEndian.PutUint64(buf[12:], 0)
	for i := headerLen; i < need; i++ {
		buf[i] = 0
	}
	return need, nil
}

// Decode parses a datagram into a netem.Packet. Size is set to the
// datagram length.
func Decode(data []byte) (*netem.Packet, error) {
	if len(data) < headerLen {
		return nil, ErrShort
	}
	if data[0] != magic {
		return nil, ErrMagic
	}
	pkt := &netem.Packet{
		Flow: int(data[2]),
		Size: len(data),
	}
	if data[1]&flagAck != 0 {
		pkt.IsAck = true
		pkt.LargestAcked = int64(binary.BigEndian.Uint64(data[4:]))
		pkt.AckDelay = sim.Time(binary.BigEndian.Uint64(data[12:]))
		n := int(data[3])
		if len(data) < headerLen+n*rangeLen {
			return nil, ErrShort
		}
		off := headerLen
		for i := 0; i < n; i++ {
			pkt.Ranges = append(pkt.Ranges, netem.AckRange{
				Smallest: int64(binary.BigEndian.Uint64(data[off:])),
				Largest:  int64(binary.BigEndian.Uint64(data[off+8:])),
			})
			off += rangeLen
		}
		return pkt, nil
	}
	pkt.Seq = int64(binary.BigEndian.Uint64(data[4:]))
	return pkt, nil
}

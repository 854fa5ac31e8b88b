package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"locsvc/internal/msg"
)

// This file preserves the original encoding/gob wire format the binary
// codec replaced. It exists for two reasons: the round-trip property test
// cross-checks the new codec's semantics against it, and the codec
// benchmarks keep it as the before/after baseline (BENCH_wire.json). It
// is not used by any transport; delete it when the comparison stops being
// interesting.

// registerOnce guards the gob type registrations.
var registerOnce sync.Once

// registerTypes registers every concrete message type carried inside an
// Envelope's Msg interface field.
func registerTypes() {
	gob.Register(msg.RegisterReq{})
	gob.Register(msg.RegisterRes{})
	gob.Register(msg.RegisterFailed{})
	gob.Register(msg.CreatePath{})
	gob.Register(msg.RemovePath{})
	gob.Register(msg.UpdateReq{})
	gob.Register(msg.UpdateRes{})
	gob.Register(msg.HandoverReq{})
	gob.Register(msg.HandoverRes{})
	gob.Register(msg.DeregisterReq{})
	gob.Register(msg.DeregisterRes{})
	gob.Register(msg.ChangeAccReq{})
	gob.Register(msg.ChangeAccRes{})
	gob.Register(msg.NotifyAvailAcc{})
	gob.Register(msg.RequestUpdate{})
	gob.Register(msg.PosQueryReq{})
	gob.Register(msg.PosQueryDirect{})
	gob.Register(msg.PosQueryRes{})
	gob.Register(msg.PosQueryFwd{})
	gob.Register(msg.RangeQueryReq{})
	gob.Register(msg.RangeQueryFwd{})
	gob.Register(msg.RangeQuerySubRes{})
	gob.Register(msg.RangeQueryRes{})
	gob.Register(msg.NeighborQueryReq{})
	gob.Register(msg.NeighborQueryRes{})
	gob.Register(msg.EventSubscribe{})
	gob.Register(msg.EventUnsubscribe{})
	gob.Register(msg.EventCount{})
	gob.Register(msg.EventNotify{})
	gob.Register(msg.DiagReq{})
	gob.Register(msg.DiagRes{})
	gob.Register(msg.Ack{})
	gob.Register(msg.ErrorRes{})
	gob.Register(msg.ReplAppend{})
	gob.Register(msg.ReplAck{})
	gob.Register(msg.RunFetch{})
	gob.Register(msg.RunFetchRes{})
	gob.Register(msg.Promote{})
	gob.Register(msg.PromoteRes{})
	gob.Register(msg.NeighborQueryFwd{})
	gob.Register(msg.NeighborQuerySubRes{})
}

// EncodeGob serializes an envelope in the retired gob format.
func EncodeGob(env msg.Envelope) ([]byte, error) {
	registerOnce.Do(registerTypes)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		return nil, fmt.Errorf("wire: gob-encoding envelope: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeGob deserializes a gob-format envelope.
func DecodeGob(data []byte) (msg.Envelope, error) {
	registerOnce.Do(registerTypes)
	var env msg.Envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return msg.Envelope{}, fmt.Errorf("wire: gob-decoding envelope: %w", err)
	}
	return env, nil
}

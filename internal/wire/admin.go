package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"time"
)

// FetchStats performs the admin exchange on a fresh connection: the mux
// preamble naming CodecBinary, a connection-level StatsOnly hello, and the
// server's KindStats answer. It is the over-the-wire metrics read the
// fabric rebalancer and the cluster health prober consume in place of
// in-process Server.Metrics calls.
//
// The exchange runs under one IO deadline derived from ctx: the smaller of
// ioTimeout and the time remaining until ctx's deadline, so a probe
// against a stalled shard returns when the caller's budget expires instead
// of inheriting the raw connection deadline.
// Cancelling ctx severs the connection immediately. The caller owns the
// connection; ioTimeout <= 0 with no ctx deadline means no deadline.
func FetchStats(ctx context.Context, conn net.Conn, ioTimeout time.Duration) (*StatsReport, error) {
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); ioTimeout <= 0 || remain < ioTimeout {
			ioTimeout = remain
		}
	}
	if ioTimeout < 0 {
		ioTimeout = time.Nanosecond // already expired: fail fast, not hang
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if ioTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
			return nil, err
		}
	}
	if err := writeMuxHandshake(conn, CodecBinary); err != nil {
		return nil, err
	}
	br := frameReaderPool.Get().(*bufio.Reader)
	br.Reset(conn)
	c, err := newFramedCodec(CodecBinary, br, conn)
	if err != nil {
		return nil, err
	}
	defer c.release()
	l := link{c}
	hello := ClientHello{Version: ProtocolVersion, StatsOnly: true}
	err = l.send(&Envelope{Kind: KindClientHello, Client: &hello})
	if err == nil {
		err = classify(c.Flush())
	}
	var e *Envelope
	if err == nil {
		e, err = l.recv(KindStats)
	}
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, fmt.Errorf("wire: fetch stats: %w", err)
	}
	return e.Stats, nil
}

package sim

import "fmt"

// Mailbox is an ordered message queue between processes, analogous to a Go
// channel but living in virtual time. A capacity of 0 means unbounded.
// Senders block only when a bound is set and reached; receivers block when
// the mailbox is empty. Both queues are FIFO.
type Mailbox[T any] struct {
	eng   *Engine
	name  string
	bound int
	buf   []T

	recvWaiters []*Proc
	sendWaiters []mboxSend[T]
	// pending holds messages handed directly to woken receivers, keyed by
	// the receiving process; the receiver collects its message on wake.
	pending []pendingRecv[T]

	// Sent and Received count total messages through the mailbox.
	Sent     int64
	Received int64
}

type mboxSend[T any] struct {
	p   *Proc
	msg T
}

// NewMailbox creates a mailbox. bound <= 0 means unbounded.
func NewMailbox[T any](eng *Engine, name string, bound int) *Mailbox[T] {
	return &Mailbox[T]{eng: eng, name: name, bound: bound}
}

// Len returns the number of queued messages.
func (m *Mailbox[T]) Len() int { return len(m.buf) }

// Send enqueues msg, blocking p while the mailbox is full.
func (m *Mailbox[T]) Send(p *Proc, msg T) {
	for m.bound > 0 && len(m.buf) >= m.bound {
		m.sendWaiters = append(m.sendWaiters, mboxSend[T]{p: p, msg: msg})
		p.park()
		// On wake our message has been delivered by the receiver.
		return
	}
	m.push(msg)
}

// TrySend enqueues msg if the mailbox has room, reporting success. It never
// blocks and may be called from event context.
func (m *Mailbox[T]) TrySend(msg T) bool {
	if m.bound > 0 && len(m.buf) >= m.bound {
		return false
	}
	m.push(msg)
	return true
}

func (m *Mailbox[T]) push(msg T) {
	m.Sent++
	if len(m.recvWaiters) > 0 {
		// Hand the message directly to the oldest receiver.
		rp := popFront(&m.recvWaiters)
		m.Received++
		m.pending = append(m.pending, pendingRecv[T]{p: rp, msg: msg})
		m.eng.scheduleWake(rp, m.eng.now)
		return
	}
	m.buf = append(m.buf, msg)
}

type pendingRecv[T any] struct {
	p   *Proc
	msg T
}

// Recv dequeues the oldest message, blocking p while the mailbox is empty.
func (m *Mailbox[T]) Recv(p *Proc) T {
	if len(m.buf) > 0 {
		msg := popFront(&m.buf)
		m.Received++
		m.wakeSender()
		return msg
	}
	m.recvWaiters = append(m.recvWaiters, p)
	p.park()
	// A sender handed us a message directly via pending.
	for i, pr := range m.pending {
		if pr.p == p {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return pr.msg
		}
	}
	panic(fmt.Sprintf("sim: mailbox %q woke receiver %q with no pending message", m.name, p.name))
}

func (m *Mailbox[T]) wakeSender() {
	if len(m.sendWaiters) == 0 {
		return
	}
	sw := popFront(&m.sendWaiters)
	m.push(sw.msg)
	m.eng.scheduleWake(sw.p, m.eng.now)
}

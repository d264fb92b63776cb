// Package ipc is the iMAX view of interprocess communication (§4 of the
// paper): the Untyped_Ports package of Figure 1, the generic Typed_Ports
// package of Figure 2, and the runtime-checked variant the paper sketches
// ("It is possible to take the idea of typed ports one step further in the
// 432 to provide the type checking dynamically at runtime").
//
// The three layers demonstrate the paper's central claim about zero-cost
// abstraction: Typed is a compile-time-only wrapper over Untyped — its
// methods do nothing but delegate, so "the code generated for any instance
// of this package [is] identical to that generated for the untyped port
// package. Thus the user of typed ports suffers no penalty relative to
// even a hypothetical assembly language programmer." Checked adds the few
// extra instructions of a runtime TDO comparison. Experiment E4 measures
// all three.
//
// The Go-facing Send and Receive here are the conditional forms: a Go
// caller is not a simulated process and cannot be parked at a port, so a
// full or empty port reports ErrWouldBlock. Code running inside the
// simulated machine gets the blocking semantics of Figure 1 from the send
// and receive instructions (internal/gdp).
package ipc

import (
	"errors"

	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/typedef"
)

// ErrWouldBlock reports a conditional send to a full port or receive from
// an empty one.
var ErrWouldBlock = errors.New("ipc: operation would block")

// ErrNoWaker reports that an operation unparked a simulated process at a
// port built without a Waker: the process has been handed the message (or
// had its own deposited) and nothing can return it to the dispatch mix.
var ErrNoWaker = errors.New("ipc: port operation unparked a process, and the port has no waker")

// Waker returns a process that a port operation unparked to the dispatch
// mix. *gdp.System is one. Ports that simulated processes block at need
// one (WithWaker); ports only Go callers use do not. The port operation
// has already succeeded when Wake is called, so it reports nothing: a
// wakeup the dispatcher cannot complete is system damage, which the
// system latches and its next Step returns.
type Waker interface {
	Wake(port.Wake)
}

// Untyped is Figure 1: ports carrying any access descriptor.
type Untyped struct {
	ports *port.Manager
	prt   obj.AD
	waker Waker
}

// CreateUntyped makes a port with the given message_count and queueing
// discipline, as Figure 1's Create_port.
func CreateUntyped(m *port.Manager, heap obj.AD, messageCount uint16, d port.Discipline) (Untyped, *obj.Fault) {
	p, f := m.Create(heap, messageCount, d)
	if f != nil {
		return Untyped{}, f
	}
	return Untyped{ports: m, prt: p}, nil
}

// WithWaker returns the port with w attached.
func (u Untyped) WithWaker(w Waker) Untyped {
	u.waker = w
	return u
}

// Port exposes the underlying port capability (for handing to spawned
// processes).
func (u Untyped) Port() obj.AD { return u.prt }

// Send queues msg; ErrWouldBlock when the queue is full.
func (u Untyped) Send(msg obj.AD) error { return u.SendKeyed(msg, 0) }

// SendKeyed queues msg with an ordering key (priority or deadline
// disciplines).
func (u Untyped) SendKeyed(msg obj.AD, key uint32) error {
	blocked, wake, f := u.ports.Send(u.prt, msg, key, obj.NilAD)
	if f != nil {
		return f
	}
	if blocked {
		return ErrWouldBlock
	}
	return u.wakeUp(wake)
}

// Receive takes the next message; ErrWouldBlock when the queue is empty.
func (u Untyped) Receive() (obj.AD, error) {
	msg, blocked, wake, f := u.ports.Receive(u.prt, obj.NilAD)
	if f != nil {
		return obj.NilAD, f
	}
	if blocked {
		return obj.NilAD, ErrWouldBlock
	}
	return msg, u.wakeUp(wake)
}

// wakeUp hands the process an operation unparked, if any, to the waker.
func (u Untyped) wakeUp(w *port.Wake) error {
	if w == nil {
		return nil
	}
	if u.waker == nil {
		return ErrNoWaker
	}
	u.waker.Wake(*w)
	return nil
}

// Handle is a capability carrying a compile-time message type. The phantom
// parameter T makes Handle[Tape] and Handle[Disk] distinct Go types even
// though both are one AD at runtime — exactly the Ada "new port" derived
// type of Figure 2's private part.
type Handle[T any] struct {
	ad obj.AD
}

// Wrap seals an AD into a typed handle. In the paper this is the
// unchecked_conversion inside the package body of Typed_Ports: callers
// outside the type manager should obtain handles from their manager, not
// construct them.
func Wrap[T any](ad obj.AD) Handle[T] { return Handle[T]{ad: ad} }

// AD unseals the handle.
func (h Handle[T]) AD() obj.AD { return h.ad }

// Typed is Figure 2: a generic instantiation whose operations type-check
// at compile time and compile to exactly the untyped operations.
type Typed[T any] struct {
	u Untyped
}

// CreateTyped instantiates the generic package for message type T.
func CreateTyped[T any](m *port.Manager, heap obj.AD, messageCount uint16, d port.Discipline) (Typed[T], *obj.Fault) {
	u, f := CreateUntyped(m, heap, messageCount, d)
	if f != nil {
		return Typed[T]{}, f
	}
	return Typed[T]{u: u}, nil
}

// WithWaker returns the port with w attached.
func (p Typed[T]) WithWaker(w Waker) Typed[T] {
	p.u = p.u.WithWaker(w)
	return p
}

// Port exposes the underlying port capability.
func (p Typed[T]) Port() obj.AD { return p.u.Port() }

// Send queues a typed message. Pure delegation: no extra work at runtime.
func (p Typed[T]) Send(msg Handle[T]) error { return p.u.Send(msg.ad) }

// SendKeyed queues a typed message with an ordering key.
func (p Typed[T]) SendKeyed(msg Handle[T], key uint32) error {
	return p.u.SendKeyed(msg.ad, key)
}

// Receive takes the next typed message.
func (p Typed[T]) Receive() (Handle[T], error) {
	ad, err := p.u.Receive()
	if err != nil {
		return Handle[T]{}, err
	}
	return Handle[T]{ad: ad}, nil
}

// Checked is the runtime-checked variant: every send verifies that the
// message is an instance of the port's TDO, and every receive re-verifies
// on the way out — "a few more generated instructions making use of
// user-defined types but ... otherwise the same as above."
type Checked struct {
	u    Untyped
	tdos *typedef.Manager
	tdo  obj.AD
}

// CreateChecked makes a runtime-typed port bound to the given TDO.
func CreateChecked(m *port.Manager, td *typedef.Manager, heap obj.AD, tdo obj.AD,
	messageCount uint16, d port.Discipline) (Checked, *obj.Fault) {
	if _, f := td.Table.RequireType(tdo, obj.TypeTDO); f != nil {
		return Checked{}, f
	}
	u, f := CreateUntyped(m, heap, messageCount, d)
	if f != nil {
		return Checked{}, f
	}
	return Checked{u: u, tdos: td, tdo: tdo}, nil
}

// WithWaker returns the port with w attached.
func (p Checked) WithWaker(w Waker) Checked {
	p.u = p.u.WithWaker(w)
	return p
}

// Port exposes the underlying port capability.
func (p Checked) Port() obj.AD { return p.u.Port() }

// Send queues msg after verifying its user type.
func (p Checked) Send(msg obj.AD) error {
	ok, f := p.tdos.Is(p.tdo, msg)
	if f != nil {
		return f
	}
	if !ok {
		return obj.Faultf(obj.FaultType, msg, "message is not an instance of the port's type")
	}
	return p.u.Send(msg)
}

// Receive takes the next message, re-verifying its type: even if a rogue
// capability was smuggled in below this wrapper, it cannot come out as
// the wrong type (§7.2's guarantee made visible).
func (p Checked) Receive() (obj.AD, error) {
	msg, err := p.u.Receive()
	if err != nil {
		return obj.NilAD, err
	}
	ok, f := p.tdos.Is(p.tdo, msg)
	if f != nil {
		return obj.NilAD, f
	}
	if !ok {
		return obj.NilAD, obj.Faultf(obj.FaultType, msg, "received object is not an instance of the port's type")
	}
	return msg, nil
}

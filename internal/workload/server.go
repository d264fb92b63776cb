package workload

import (
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
)

// ServerSpec describes the per-request program of one request-server
// class. A server is a resident VM process that loops forever: receive a
// session object from its class's request port, touch session state,
// burn a calibrated amount of compute, optionally cross protection
// domains, and send the session object on to the reply port. The scenario
// engine (internal/scenario) composes open-loop session mixes from these.
type ServerSpec struct {
	// Demand is the busy-spin iteration count per request — the pure
	// compute component of service time.
	Demand uint32
	// Touches is the number of session-object dwords read-modified-
	// written per request (offsets 0, 4, 8, …). Each completed request
	// increments each touched dword by exactly one, which makes session
	// bytes a deterministic witness of how many requests were served.
	Touches uint32
	// DomainCalls is the number of cross-domain call/return pairs per
	// request — the E1 domain-switch shape as a service-time component.
	DomainCalls uint32
}

// ServerProgram assembles the server loop. Register conventions (set by
// the spawner through SpawnSpec.AArgs): a0 holds the callee domain when
// DomainCalls > 0, a2 the class request port, a3 the shared reply port;
// a1 carries the in-flight session object between Recv and Send.
func ServerProgram(spec ServerSpec) []isa.Instr {
	var p []isa.Instr
	p = append(p, isa.MovI(6, 0)) // r6: constant send key
	loop := uint32(len(p))
	p = append(p, isa.Recv(1, 2))
	for t := uint32(0); t < spec.Touches; t++ {
		p = append(p,
			isa.Load(2, 1, t*4),
			isa.AddI(2, 2, 1),
			isa.Store(2, 1, t*4),
		)
	}
	if spec.Demand > 0 {
		p = append(p, isa.MovI(3, spec.Demand))
		spin := uint32(len(p))
		p = append(p, isa.AddI(3, 3, ^uint32(0)), isa.BrNZ(3, spin))
	}
	for i := uint32(0); i < spec.DomainCalls; i++ {
		p = append(p, isa.Call(0, 0))
	}
	p = append(p, isa.Send(1, 3, 6), isa.Br(loop))
	return p
}

// NewServerDomain assembles the server domain for the spec, plus the
// trivial callee domain for its cross-domain calls (NilAD when the spec
// makes none). Pass the callee in AArgs[0] at spawn. On a fault, use
// neither domain.
func NewServerDomain(sys *gdp.System, spec ServerSpec) (dom, callee obj.AD, f *obj.Fault) {
	var l obj.Latch
	if spec.DomainCalls > 0 {
		callee = l.AD(Domain(sys, []isa.Instr{isa.Ret()}))
	}
	dom = l.AD(Domain(sys, ServerProgram(spec)))
	return dom, callee, l.Fault()
}

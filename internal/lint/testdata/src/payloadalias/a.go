// Package progs is payloadalias testdata: Step/Deliver methods must not
// retain delivered payload bytes without a copy.
package progs

// Incoming mirrors congest.Incoming: a payload-carrying inbox element.
type Incoming struct {
	Port    int
	Payload []byte
}

var global []byte

type prog struct {
	saved []byte
	all   [][]byte
	hook  func() int
	last  Incoming
}

func (p *prog) Step(round int, inbox []Incoming) bool {
	p.saved = inbox[0].Payload // want "stored in field p.saved"
	for _, msg := range inbox {
		p.saved = msg.Payload              // want "stored in field p.saved"
		p.saved = msg.Payload[1:]          // want "stored in field p.saved"
		p.all = append(p.all, msg.Payload) // want "stored in field p.all"
		global = msg.Payload               // want "package variable global"
		p.last = msg                       // want "stored in field p.last"

		q := msg.Payload
		p.saved = q // want "stored in field p.saved"

		p.saved = append([]byte(nil), msg.Payload...) // ok: fresh copy
		var cp []byte
		cp = append(cp, msg.Payload...)
		p.saved = cp // ok: cp owns its bytes

		p.hook = func() int { return len(q) } // want "stored in field p.hook"
	}
	return false
}

func (p *prog) Deliver(payload []byte) bool {
	hold := make([][]byte, 0, 4)
	hold = append(hold, payload)
	p.all = hold // want "stored in field p.all"

	sum := 0
	for _, b := range payload { // ok: reading bytes is free
		sum += int(b)
	}
	return sum > 0
}

// NotAStep retains its argument, but the contract only covers Step and
// Deliver: other methods own their own lifetimes.
func (p *prog) NotAStep(payload []byte) {
	p.saved = payload // ok
}

func (p *prog) StepClean(round int, inbox []Incoming) bool {
	return len(inbox) == 0 // ok: not named Step/Deliver
}

type decoder struct {
	frames [][]byte
}

func (d *decoder) Step(n int, inbox []Incoming) bool {
	//detlint:allow payloadalias frames is flushed before Step returns, see docs/ARCHITECTURE.md#static-guarantees
	d.frames = append(d.frames, inbox[0].Payload)
	return false
}

// scalar pins the in[0].Port regression: selecting a non-byte-carrying
// field out of a tainted inbox element is not a retention.
type scalar struct {
	parentPort int
	bestRound  int
}

func (s *scalar) Step(round int, inbox []Incoming) bool {
	if len(inbox) > 0 {
		s.parentPort = inbox[0].Port // ok: an int cannot alias the arena
		for _, m := range inbox {
			s.bestRound = m.Port // ok: field of ranged element, still an int
		}
	}
	return false
}

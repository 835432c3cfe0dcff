package wmapt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"

	"uwm/internal/core"
	"uwm/internal/metrics"
	"uwm/internal/noise"
	"uwm/internal/otp"
)

// Region layout, the byte-level version of the paper's Figure 4:
//
//	[0:20)   random bytes — overwritten with each ping's XOR transform
//	[20:40)  (jmp marker ‖ AES-128 key) ⊕ one-time-pad trigger
//	[40:44)  divide-by-zero marker (never encrypted; guarantees the
//	         fault that rolls a wrong decode back inside the TSX block)
//	[44:60)  AES-CTR IV
//	[60:)    AES-CTR encrypted payload
const (
	offResult  = 0
	offXorText = 20
	offDivZero = 40
	offIV      = 44
	offPayload = 60
)

// jmpMarker is the byte encoding of the "jmp over the AES key to
// target_function" instruction of Figure 4: a correct trigger must
// reproduce it exactly for execution to reach the payload.
var jmpMarker = [4]byte{0xE9, 0x42, 0x01, 0x00}

// divZeroMarker encodes the tmp = tmp/0 instruction.
var divZeroMarker = [4]byte{0xF7, 0xF0, 0x00, 0x00}

// keySize is the AES-128 key length both obfuscation systems use.
const keySize = 16

// ctr encrypts or decrypts src under AES-128-CTR (the operation is its
// own inverse), so payloads of any length need no padding.
func ctr(key, iv, src []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(src))
	cipher.NewCTR(block, iv).XORKeyStream(out, src)
	return out, nil
}

// DefaultEvalMultiple is how many XOR transforms the APT tries per
// received ping; the paper chose 10 (§5.1).
const DefaultEvalMultiple = 10

// Options configures an APT instance.
type Options struct {
	// Seed drives the machine's noise and the pad generation.
	Seed uint64
	// EvalMultiple overrides DefaultEvalMultiple when positive.
	EvalMultiple int
	// Machine supplies a pre-built weird machine; when nil one is
	// created with MachineOptions(Seed).
	Machine *core.Machine
}

// MachineOptions returns the weird-machine configuration the APT runs
// on: paper noise with the TSX chain-break rate of the *optimized*
// skelly framework of §6.4 ("additional code alignment to improve TSX
// gate stability"), which is what the paper built wm_apt with. The
// resulting per-bit XOR accuracy ≈ 0.973 reproduces the trigger
// distribution of Table 3 and Figure 6 (median ≈ 6 pings).
func MachineOptions(seed uint64) core.Options {
	cfg := noise.Paper()
	cfg.TSXChainBreakProb = 0.021
	return core.Options{Seed: seed, Noise: cfg}
}

// Result reports a triggered payload execution.
type Result struct {
	PingsReceived int      // pings processed since Install
	Attempts      int      // XOR transforms performed in total
	Events        []string // payload event log
	Payload       string   // payload name
}

// APT is the weird obfuscation system: install it with a payload and a
// trigger, feed it pings, and it stays inert — decoding each ping body
// through a TSX weird XOR — until the correct trigger decodes the jmp
// marker and AES key.
type APT struct {
	m     *core.Machine
	xor   *core.TSXGate
	env   *Env
	evalN int

	region  []byte
	pings   int
	tries   int
	fired   bool
	lastRes Result
}

// New builds an APT against the given environment.
func New(env *Env, opts Options) (*APT, error) {
	m := opts.Machine
	if m == nil {
		var err error
		m, err = core.NewMachine(MachineOptions(opts.Seed))
		if err != nil {
			return nil, err
		}
	}
	gate, err := core.NewTSXXor(m)
	if err != nil {
		return nil, err
	}
	evalN := opts.EvalMultiple
	if evalN <= 0 {
		evalN = DefaultEvalMultiple
	}
	a := &APT{m: m, xor: gate, env: env, evalN: evalN}
	a.registerMetrics(m.Metrics())
	return a, nil
}

// Metric series exported by the obfuscation engine.
const (
	MetricPings     = "uwm_apt_pings_total"
	MetricDecodes   = "uwm_apt_trigger_decodes_total"
	MetricTriggered = "uwm_apt_triggered"
)

// registerMetrics exposes the ping and trigger-decode counters on the
// machine's registry (a no-op when none is attached).
func (a *APT) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc(MetricPings, "pings processed since install",
		func() uint64 { return uint64(a.pings) })
	reg.CounterFunc(MetricDecodes, "weird-XOR trigger decode attempts",
		func() uint64 { return uint64(a.tries) })
	reg.GaugeFunc(MetricTriggered, "1 after the payload has fired",
		func() float64 {
			if a.fired {
				return 1
			}
			return 0
		})
}

// Machine exposes the underlying weird machine (for the analyzer).
func (a *APT) Machine() *core.Machine { return a.m }

// Install prepares the Figure 4 memory region: encrypt the payload
// under a fresh AES key, XOR the (marker ‖ key) against the trigger
// pad, and fill the leading region with random bytes. It returns the
// trigger the attacker must later deliver.
func (a *APT) Install(p Payload) (otp.Pad, error) {
	rng := a.m.Noise().RNG()
	pad := otp.NewPad(rng)

	var key [keySize]byte
	rng.Bytes(key[:])
	var iv [aes.BlockSize]byte
	rng.Bytes(iv[:])

	plainPayload, err := EncodePayload(p)
	if err != nil {
		return pad, err
	}
	encPayload, err := ctr(key[:], iv[:], plainPayload)
	if err != nil {
		return pad, err
	}

	region := make([]byte, offPayload+len(encPayload))
	rng.Bytes(region[offResult:offXorText])
	copy(region[offXorText:offXorText+4], jmpMarker[:])
	copy(region[offXorText+4:offDivZero], key[:])
	// "Encrypt" marker+key against the one-time pad.
	enc, err := otp.XOR(region[offXorText:offDivZero], pad[:])
	if err != nil {
		return pad, err
	}
	copy(region[offXorText:offDivZero], enc)
	copy(region[offDivZero:offIV], divZeroMarker[:])
	copy(region[offIV:offPayload], iv[:])
	copy(region[offPayload:], encPayload)

	a.region = region
	a.pings = 0
	a.tries = 0
	a.fired = false
	return pad, nil
}

// ErrNotInstalled is returned when pings arrive before Install.
var ErrNotInstalled = errors.New("wmapt: no payload installed")

// weirdXORBit computes one plaintext bit c ⊕ k on the TSX weird XOR
// circuit: both operands enter the microarchitecture as cache states,
// the three-transaction circuit runs, and the result is read back
// through a transactional timed load. Gate inaccuracy is exactly the
// paper's: some bits come back wrong, which is why triggers need
// multiple pings.
func (a *APT) weirdXORBit(c, k int) (int, error) {
	sp := a.m.BeginSpan("gate:TSX_XOR")
	defer a.m.EndSpan(sp)
	if err := a.xor.WriteInput(0, c); err != nil {
		return 0, err
	}
	if err := a.xor.WriteInput(1, k); err != nil {
		return 0, err
	}
	if err := a.xor.Prep(); err != nil {
		return 0, err
	}
	if err := a.xor.Fire(); err != nil {
		return 0, err
	}
	bits, _, err := a.xor.ReadOutputs()
	if err != nil {
		return 0, err
	}
	return bits[0], nil
}

// transform XORs the encrypted marker+key region against the ping body
// through the weird circuit, writing the result over the leading
// random bytes (Figure 4's overwrite).
func (a *APT) transform(ping otp.Pad) error {
	sp := a.m.BeginSpan("apt:transform")
	defer a.m.EndSpan(sp)
	a.tries++
	cipherText := a.region[offXorText:offDivZero]
	result := a.region[offResult:offXorText]
	for i := 0; i < otp.PadBits; i++ {
		bit, err := a.weirdXORBit(otp.Bit(cipherText, i), otp.Bit(ping[:], i))
		if err != nil {
			return err
		}
		otp.SetBit(result, i, bit)
	}
	return nil
}

// HandlePing processes one received ping. For each ping the APT
// performs up to EvalMultiple weird XOR transforms (§5.1); if a
// transform yields the jmp marker, the AES key is valid and the payload
// is decrypted and executed inside a TSX region. A wrong trigger —
// or a correct trigger whose transform picked up gate errors — leaves
// garbage that faults at the divide-by-zero and rolls back.
func (a *APT) HandlePing(ping otp.Pad) (*Result, error) {
	if a.region == nil {
		return nil, ErrNotInstalled
	}
	if a.fired {
		res := a.lastRes
		return &res, nil
	}
	sp := a.m.BeginSpan("apt:ping")
	defer a.m.EndSpan(sp)
	a.pings++
	for attempt := 0; attempt < a.evalN; attempt++ {
		if err := a.transform(ping); err != nil {
			return nil, err
		}
		result := a.region[offResult:offXorText]
		if !bytes.Equal(result[:4], jmpMarker[:]) {
			// Simulated execution of the garbage region faults by the
			// divide-by-zero at the latest; the TSX block rolls it
			// back and the APT keeps waiting.
			continue
		}
		key := result[4:otp.PadBytes]
		plain, err := ctr(key, a.region[offIV:offPayload], a.region[offPayload:])
		if err != nil {
			return nil, err
		}
		payload, err := DecodePayload(plain)
		if err != nil {
			// Marker matched but the key bits carried an error: the
			// decrypted garbage faults inside the TSX block. Keep
			// waiting.
			continue
		}
		events, err := payload.Execute(a.env)
		if err != nil {
			return nil, err
		}
		a.fired = true
		a.lastRes = Result{
			PingsReceived: a.pings,
			Attempts:      a.tries,
			Events:        events,
			Payload:       payload.Name(),
		}
		res := a.lastRes
		return &res, nil
	}
	return nil, nil // silent: no observable activity
}

// Triggered reports whether the payload has executed.
func (a *APT) Triggered() bool { return a.fired }

// Pings returns how many pings were processed since Install.
func (a *APT) Pings() int { return a.pings }

// RunTriggerExperiment reproduces the paper's §6.5.1 experiment once:
// install the payload, then deliver the correct trigger every 500
// simulated milliseconds until the payload fires, returning the number
// of pings needed.
func RunTriggerExperiment(seed uint64, p Payload) (int, error) {
	env := NewEnv()
	apt, err := New(env, Options{Seed: seed})
	if err != nil {
		return 0, err
	}
	pad, err := apt.Install(p)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 10000; i++ {
		res, err := apt.HandlePing(pad)
		if err != nil {
			return 0, err
		}
		if res != nil {
			return res.PingsReceived, nil
		}
	}
	return 0, fmt.Errorf("wmapt: trigger did not fire within 10000 pings")
}

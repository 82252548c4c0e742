package energy

import (
	"fmt"
	"math"
)

// RadioModel is a first-order sensor radio energy model. A sensor that
// generates own bits/s and relays relayed bits/s to a parent at distance d
// meters draws
//
//	P = DutyCycle * [ Sense*own + (Elec + Amp*d^PathLoss)*(own+relayed) + Elec*relayed ]
//
// watts: sensing its own data, transmitting everything it forwards, and
// receiving what it relays. The relayed term makes sensors near the base
// station the hottest, reproducing the energy-hole profile of the paper's
// consumption reference [12].
type RadioModel struct {
	// ElecJPerBit is the electronics energy per bit for TX and RX
	// (typical: 50 nJ/bit).
	ElecJPerBit float64 `json:"elec_j_per_bit"`
	// AmpJPerBitPow is the amplifier energy per bit per meter^PathLoss
	// (typical: 100 pJ/bit/m^2).
	AmpJPerBitPow float64 `json:"amp_j_per_bit_pow"`
	// SenseJPerBit is the sensing energy per own bit (typical: 5 nJ/bit).
	SenseJPerBit float64 `json:"sense_j_per_bit"`
	// PathLoss is the path-loss exponent (typical: 2).
	PathLoss float64 `json:"path_loss"`
	// DutyCycle scales the whole draw for sleep scheduling, in (0, 1].
	DutyCycle float64 `json:"duty_cycle"`
}

// DefaultRadio returns the model parameters used throughout the
// reproduction: the classic first-order constants with a 50% duty cycle,
// calibrated so that a WRSN with the paper's battery (10.8 kJ), data rates
// (1-50 kbps) and size (around 1000 sensors) presents a charging demand
// that K=2 chargers at 2 W can barely sustain under one-to-one charging —
// the regime the paper's evaluation operates in (per-algorithm utilization
// around 0.8-1.0 for the one-to-one baselines, comfortable for multi-node
// charging).
func DefaultRadio() RadioModel {
	return RadioModel{
		ElecJPerBit:   50e-9,
		AmpJPerBitPow: 100e-12,
		SenseJPerBit:  5e-9,
		PathLoss:      2,
		DutyCycle:     0.5,
	}
}

// Validate reports a problem with the model parameters, or nil.
func (m RadioModel) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ElecJPerBit", m.ElecJPerBit},
		{"AmpJPerBitPow", m.AmpJPerBitPow},
		{"SenseJPerBit", m.SenseJPerBit},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("energy: %s = %v, want finite >= 0", f.name, f.v)
		}
	}
	if m.PathLoss < 1 || m.PathLoss > 6 || math.IsNaN(m.PathLoss) {
		return fmt.Errorf("energy: PathLoss = %v, want in [1, 6]", m.PathLoss)
	}
	if m.DutyCycle <= 0 || m.DutyCycle > 1 || math.IsNaN(m.DutyCycle) {
		return fmt.Errorf("energy: DutyCycle = %v, want in (0, 1]", m.DutyCycle)
	}
	return nil
}

// Draw returns the sensor's power draw in watts given its own data rate
// (bits/s), the rate it relays for descendants (bits/s), and the distance
// to its routing parent (meters). Negative inputs are clamped to zero.
func (m RadioModel) Draw(ownBps, relayedBps, parentDist float64) float64 {
	if ownBps < 0 {
		ownBps = 0
	}
	if relayedBps < 0 {
		relayedBps = 0
	}
	if parentDist < 0 {
		parentDist = 0
	}
	txPerBit := m.ElecJPerBit + m.AmpJPerBitPow*math.Pow(parentDist, m.PathLoss)
	p := m.SenseJPerBit*ownBps +
		txPerBit*(ownBps+relayedBps) +
		m.ElecJPerBit*relayedBps
	return m.DutyCycle * p
}

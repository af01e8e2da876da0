package secure

// The reference decryptions the served path is pinned against. No
// settlement decrypts this way: a DataReceiver blinds every ciphertext
// before the CRT exponentiations (DataReceiver.Open).

import "math/big"

// Decrypt is the unblinded CRT decryption of the ciphertext.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if err := sk.checkCiphertext(ct); err != nil {
		return nil, err
	}
	return sk.decrypt(new(big.Int).Mod(ct.C, sk.p2), new(big.Int).Mod(ct.C, sk.q2)), nil
}

// DecryptClassic is the textbook decryption m = L(c^λ mod n²) · μ mod n:
// one full-width modexp over n², with λ = lcm(p−1, q−1) and
// μ = (L(g^λ mod n²))⁻¹ mod n.
func (sk *PrivateKey) DecryptClassic(ct *Ciphertext) (*big.Int, error) {
	if err := sk.checkCiphertext(ct); err != nil {
		return nil, err
	}
	gcd := new(big.Int).GCD(nil, nil, sk.pOrder, sk.qOrder)
	lambda := new(big.Int).Mul(sk.pOrder, sk.qOrder)
	lambda.Div(lambda, gcd)
	// With g = n+1, g^λ mod n² = 1 + λ·n (binomial), so L(g^λ) = λ mod n.
	mu := new(big.Int).Mod(lambda, sk.N)
	mu.ModInverse(mu, sk.N)

	u := new(big.Int).Exp(ct.C, lambda, sk.N2)
	// L(u) = (u - 1)/n
	l := u.Sub(u, one)
	l.Div(l, sk.N)
	m := l.Mul(l, mu)
	m.Mod(m, sk.N)
	return m, nil
}

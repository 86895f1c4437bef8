//! HMAC-SHA-256 (RFC 2104), used by the DRBG and deterministic nonce
//! derivation (RFC 6979-style) in the Schnorr signer.

use crate::sha256::Sha256;

/// Compute `HMAC-SHA-256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        let d = crate::sha256(key);
        key_block[..32].copy_from_slice(&d);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    for i in 0..64 {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A 32-byte key over 8- and 600-byte messages, the shapes of a DRBG
    /// refill (key, counter) and a long nonce derivation, computed with
    /// Python's `hmac` module. Key bytes are `0xa0, 0xa1, …`; message
    /// bytes are `0, 1, …, 255, 0, 1, …`.
    #[test]
    fn drbg_and_nonce_shapes_known_answers() {
        let key: Vec<u8> = (0xa0..0xc0).collect();
        for (len, mac) in [
            (
                8,
                "d5eb49db024264dd21ccf894011a416bd0d5937a549478091c8054986847385b",
            ),
            (
                600,
                "ad8f1452146390b55fb0ab58f5132ec4f5391a35f7c947e90ed691c1af2efe99",
            ),
        ] {
            let message: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(hex(&hmac_sha256(&key, &message)), mac, "len {len}");
        }
    }

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&out),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&out),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let out = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&out),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }
}

//! PEM (RFC 7468) encoding/decoding for certificates.
//!
//! CA file deliveries (`fullchain.pem`, `ca-bundle.pem`) and the CLI tool
//! speak PEM; this module provides the armor plus an in-tree base64 codec
//! (standard alphabet, 64-column wrapping).

use crate::cert::Certificate;
use crate::X509Error;
use std::fmt;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Errors from PEM parsing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PemError {
    /// No `BEGIN CERTIFICATE` block found.
    NoCertificateBlock,
    /// A `BEGIN` armor line had no matching `END`.
    UnterminatedBlock,
    /// Base64 payload was malformed.
    InvalidBase64,
    /// The DER inside a block failed to parse.
    BadCertificate(X509Error),
}

impl fmt::Display for PemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PemError::NoCertificateBlock => write!(f, "no CERTIFICATE block in PEM input"),
            PemError::UnterminatedBlock => write!(f, "unterminated PEM block"),
            PemError::InvalidBase64 => write!(f, "invalid base64 in PEM block"),
            PemError::BadCertificate(e) => write!(f, "bad certificate in PEM block: {e}"),
        }
    }
}

impl std::error::Error for PemError {}

/// Base64-encode (standard alphabet, with padding).
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = *chunk.get(1).unwrap_or(&0) as u32;
        let b2 = *chunk.get(2).unwrap_or(&0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(triple >> 18) as usize & 0x3f] as char);
        out.push(ALPHABET[(triple >> 12) as usize & 0x3f] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(triple >> 6) as usize & 0x3f] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[triple as usize & 0x3f] as char
        } else {
            '='
        });
    }
    out
}

/// Base64-decode (standard alphabet; whitespace ignored; padding
/// optional). Padding ends the data: after the first `=` only whitespace
/// and one more `=` may follow.
pub fn base64_decode(text: &str) -> Option<Vec<u8>> {
    let (data, padding) = text.split_at(text.find('=').unwrap_or(text.len()));
    if padding.chars().any(|c| c != '=' && !c.is_whitespace()) || padding.matches('=').count() > 2 {
        return None;
    }
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    let mut out = Vec::with_capacity(data.len() * 3 / 4);
    for c in data.chars() {
        if c.is_whitespace() {
            continue;
        }
        let v = match c {
            'A'..='Z' => c as u32 - 'A' as u32,
            'a'..='z' => c as u32 - 'a' as u32 + 26,
            '0'..='9' => c as u32 - '0' as u32 + 52,
            '+' => 62,
            '/' => 63,
            _ => return None,
        };
        acc = (acc << 6) | v;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    // Leftover bits must be zero padding.
    if bits > 0 && acc & ((1 << bits) - 1) != 0 {
        return None;
    }
    Some(out)
}

/// Encode one certificate as a PEM block.
pub fn encode_certificate(cert: &Certificate) -> String {
    let b64 = base64_encode(cert.to_der());
    let mut out = String::with_capacity(b64.len() + 64);
    out.push_str("-----BEGIN CERTIFICATE-----\n");
    for chunk in b64.as_bytes().chunks(64) {
        out.push_str(std::str::from_utf8(chunk).expect("base64 is ASCII"));
        out.push('\n');
    }
    out.push_str("-----END CERTIFICATE-----\n");
    out
}

/// Encode a certificate list as concatenated PEM blocks (the fullchain /
/// ca-bundle file format).
pub fn encode_chain(certs: &[Certificate]) -> String {
    certs.iter().map(encode_certificate).collect()
}

/// Parse every CERTIFICATE block from PEM text, in order.
pub fn decode_chain(text: &str) -> Result<Vec<Certificate>, PemError> {
    let mut certs = Vec::new();
    let mut lines = text.lines();
    loop {
        // Seek a BEGIN line.
        let mut found = false;
        for line in lines.by_ref() {
            if line.trim() == "-----BEGIN CERTIFICATE-----" {
                found = true;
                break;
            }
        }
        if !found {
            break;
        }
        let mut b64 = String::new();
        let mut terminated = false;
        for line in lines.by_ref() {
            if line.trim() == "-----END CERTIFICATE-----" {
                terminated = true;
                break;
            }
            b64.push_str(line.trim());
        }
        if !terminated {
            return Err(PemError::UnterminatedBlock);
        }
        let der = base64_decode(&b64).ok_or(PemError::InvalidBase64)?;
        let cert = Certificate::from_der(&der).map_err(PemError::BadCertificate)?;
        certs.push(cert);
    }
    if certs.is_empty() {
        return Err(PemError::NoCertificateBlock);
    }
    Ok(certs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CertificateBuilder, DistinguishedName};
    use ccc_crypto::{Group, KeyPair};

    fn cert(name: &str, seed: &[u8]) -> Certificate {
        let kp = KeyPair::from_seed(Group::simulation_256(), seed);
        CertificateBuilder::ca_profile(DistinguishedName::cn(name)).self_signed(&kp)
    }

    #[test]
    fn base64_known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(base64_decode("Zg==").unwrap(), b"f");
        assert_eq!(base64_decode("Zm8=").unwrap(), b"fo");
        assert_eq!(
            base64_decode("Z m 8 =").unwrap(),
            b"fo",
            "whitespace tolerated"
        );
        assert!(base64_decode("Z!8=").is_none());
        assert!(base64_decode("Zg==Zm9v").is_none(), "data after padding");
        assert!(base64_decode("Zg==!!!").is_none(), "junk after padding");
        assert!(base64_decode("Zg===").is_none(), "three padding characters");
    }

    #[test]
    fn base64_roundtrip_random_lengths() {
        for len in 0..100usize {
            let data: Vec<u8> = (0..len as u8).collect();
            let enc = base64_encode(&data);
            assert_eq!(base64_decode(&enc).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn single_certificate_roundtrip() {
        let c = cert("PEM Test", b"pem-1");
        let pem = encode_certificate(&c);
        assert!(pem.starts_with("-----BEGIN CERTIFICATE-----\n"));
        assert!(pem.ends_with("-----END CERTIFICATE-----\n"));
        // All payload lines are <= 64 columns.
        for line in pem.lines().filter(|l| !l.starts_with("-----")) {
            assert!(line.len() <= 64);
        }
        let parsed = decode_chain(&pem).unwrap();
        assert_eq!(parsed, vec![c]);
    }

    #[test]
    fn chain_roundtrip_preserves_order() {
        let chain = vec![
            cert("A", b"pem-a"),
            cert("B", b"pem-b"),
            cert("C", b"pem-c"),
        ];
        let pem = encode_chain(&chain);
        assert_eq!(decode_chain(&pem).unwrap(), chain);
    }

    #[test]
    fn junk_between_blocks_tolerated() {
        let c = cert("PEM Junk", b"pem-2");
        let pem = format!(
            "subject=CN=PEM Junk\nissuer=whatever\n{}# trailing comment\n",
            encode_certificate(&c)
        );
        assert_eq!(decode_chain(&pem).unwrap(), vec![c]);
    }

    #[test]
    fn errors_reported() {
        assert_eq!(
            decode_chain("no pem here"),
            Err(PemError::NoCertificateBlock)
        );
        assert_eq!(
            decode_chain("-----BEGIN CERTIFICATE-----\nZm9v\n"),
            Err(PemError::UnterminatedBlock)
        );
        assert_eq!(
            decode_chain("-----BEGIN CERTIFICATE-----\n!!!\n-----END CERTIFICATE-----\n"),
            Err(PemError::InvalidBase64)
        );
        let garbage = format!(
            "-----BEGIN CERTIFICATE-----\n{}\n-----END CERTIFICATE-----\n",
            base64_encode(b"not a certificate")
        );
        assert!(matches!(
            decode_chain(&garbage),
            Err(PemError::BadCertificate(_))
        ));
        // Two certificates' base64 in one block: the first one's padding
        // must not end the block and drop the second.
        let first = base64_encode(cert("A", b"pem-a").to_der());
        assert!(
            first.ends_with('='),
            "precondition: the first encoding is padded"
        );
        let merged = format!(
            "-----BEGIN CERTIFICATE-----\n{first}\n{}\n-----END CERTIFICATE-----\n",
            base64_encode(cert("B", b"pem-b").to_der())
        );
        assert_eq!(decode_chain(&merged), Err(PemError::InvalidBase64));
    }
}

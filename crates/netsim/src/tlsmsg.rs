//! TLS Certificate message framing.
//!
//! Encodes/decodes the certificate list exactly as it appears on the wire:
//!
//! - TLS 1.2 (RFC 5246 §7.4.2): `Certificate` handshake message — handshake
//!   type 11, 24-bit length, then a 24-bit certificate_list length and each
//!   certificate as a 24-bit length + DER.
//! - TLS 1.3 (RFC 8446 §4.4.2): adds a certificate_request_context and a
//!   per-entry (empty here) extensions block.

use ccc_x509::{Certificate, X509Error};
use std::fmt;

/// Handshake message type for Certificate.
pub const HANDSHAKE_TYPE_CERTIFICATE: u8 = 11;

/// Framing errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TlsMsgError {
    /// Input shorter than a declared length.
    Truncated,
    /// Handshake type byte was not Certificate(11).
    NotCertificateMessage(u8),
    /// Declared lengths are inconsistent.
    LengthMismatch,
    /// A certificate entry failed to parse.
    BadCertificate(X509Error),
    /// A list or message exceeded the 2^24-1 framing limit.
    TooLarge,
}

impl fmt::Display for TlsMsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TlsMsgError::Truncated => write!(f, "certificate message truncated"),
            TlsMsgError::NotCertificateMessage(t) => {
                write!(f, "handshake type {t} is not Certificate(11)")
            }
            TlsMsgError::LengthMismatch => write!(f, "inconsistent certificate message lengths"),
            TlsMsgError::BadCertificate(e) => write!(f, "bad certificate entry: {e}"),
            TlsMsgError::TooLarge => write!(f, "certificate list exceeds 2^24-1 bytes"),
        }
    }
}

impl std::error::Error for TlsMsgError {}

fn push_u24(out: &mut Vec<u8>, v: usize) -> Result<(), TlsMsgError> {
    if v > 0xff_ffff {
        return Err(TlsMsgError::TooLarge);
    }
    out.push((v >> 16) as u8);
    out.push((v >> 8) as u8);
    out.push(v as u8);
    Ok(())
}

/// Checked cursor advance: `pos + n` without overflow (adversarial
/// lengths can push a naive cursor past `usize::MAX`; any overflow means
/// the declared structure cannot fit in the input, i.e. truncation).
fn advance(pos: usize, n: usize) -> Result<usize, TlsMsgError> {
    pos.checked_add(n).ok_or(TlsMsgError::Truncated)
}

fn read_u24(data: &[u8], pos: &mut usize) -> Result<usize, TlsMsgError> {
    let end = advance(*pos, 3)?;
    let bytes = data.get(*pos..end).ok_or(TlsMsgError::Truncated)?;
    let v = ((bytes[0] as usize) << 16) | ((bytes[1] as usize) << 8) | bytes[2] as usize;
    *pos = end;
    Ok(v)
}

/// Pre-size the certificate vec from the declared list length: every
/// entry costs at least a 3-byte length header, so `list_len / 3` bounds
/// the entry count; the cap keeps a hostile 2^24-1 declaration from
/// reserving more than a sane chain's worth up front (the vec still
/// grows organically if a real list is longer).
fn presize_certs(list_len: usize) -> Vec<Certificate> {
    const CERT_ENTRY_MIN_BYTES: usize = 3;
    const PRESIZE_CAP: usize = 64;
    Vec::with_capacity((list_len / CERT_ENTRY_MIN_BYTES).min(PRESIZE_CAP))
}

/// Encode a TLS 1.2 Certificate handshake message from a certificate list.
pub fn encode_tls12(certs: &[Certificate]) -> Result<Vec<u8>, TlsMsgError> {
    let mut list = Vec::new();
    for cert in certs {
        push_u24(&mut list, cert.to_der().len())?;
        list.extend_from_slice(cert.to_der());
    }
    let mut body = Vec::with_capacity(list.len() + 3);
    push_u24(&mut body, list.len())?;
    body.extend_from_slice(&list);
    let mut msg = Vec::with_capacity(body.len() + 4);
    msg.push(HANDSHAKE_TYPE_CERTIFICATE);
    push_u24(&mut msg, body.len())?;
    msg.extend_from_slice(&body);
    Ok(msg)
}

/// Decode a TLS 1.2 Certificate handshake message into its certificate
/// list (in wire order, exactly as served).
pub fn decode_tls12(msg: &[u8]) -> Result<Vec<Certificate>, TlsMsgError> {
    let mut pos = 0usize;
    if msg.is_empty() {
        return Err(TlsMsgError::Truncated);
    }
    if msg[0] != HANDSHAKE_TYPE_CERTIFICATE {
        return Err(TlsMsgError::NotCertificateMessage(msg[0]));
    }
    pos += 1;
    let body_len = read_u24(msg, &mut pos)?;
    if Some(msg.len()) != pos.checked_add(body_len) {
        return Err(TlsMsgError::LengthMismatch);
    }
    let list_len = read_u24(msg, &mut pos)?;
    if list_len.checked_add(3) != Some(body_len) {
        return Err(TlsMsgError::LengthMismatch);
    }
    let end = advance(pos, list_len)?;
    let mut certs = presize_certs(list_len);
    while pos < end {
        let cert_len = read_u24(msg, &mut pos)?;
        let cert_end = advance(pos, cert_len)?;
        if cert_end > end {
            return Err(TlsMsgError::Truncated);
        }
        let cert =
            Certificate::from_der(&msg[pos..cert_end]).map_err(TlsMsgError::BadCertificate)?;
        pos = cert_end;
        certs.push(cert);
    }
    Ok(certs)
}

/// Encode a TLS 1.3 Certificate handshake message (empty request context,
/// empty per-entry extensions).
pub fn encode_tls13(certs: &[Certificate]) -> Result<Vec<u8>, TlsMsgError> {
    let mut list = Vec::new();
    for cert in certs {
        push_u24(&mut list, cert.to_der().len())?;
        list.extend_from_slice(cert.to_der());
        // extensions<0..2^16-1>: empty.
        list.push(0);
        list.push(0);
    }
    let mut body = Vec::with_capacity(list.len() + 4);
    body.push(0); // certificate_request_context length
    push_u24(&mut body, list.len())?;
    body.extend_from_slice(&list);
    let mut msg = Vec::with_capacity(body.len() + 4);
    msg.push(HANDSHAKE_TYPE_CERTIFICATE);
    push_u24(&mut msg, body.len())?;
    msg.extend_from_slice(&body);
    Ok(msg)
}

/// Decode a TLS 1.3 Certificate handshake message.
pub fn decode_tls13(msg: &[u8]) -> Result<Vec<Certificate>, TlsMsgError> {
    let mut pos = 0usize;
    if msg.is_empty() {
        return Err(TlsMsgError::Truncated);
    }
    if msg[0] != HANDSHAKE_TYPE_CERTIFICATE {
        return Err(TlsMsgError::NotCertificateMessage(msg[0]));
    }
    pos += 1;
    let body_len = read_u24(msg, &mut pos)?;
    if Some(msg.len()) != pos.checked_add(body_len) {
        return Err(TlsMsgError::LengthMismatch);
    }
    // certificate_request_context
    let ctx_len = *msg.get(pos).ok_or(TlsMsgError::Truncated)? as usize;
    pos = advance(pos, 1 + ctx_len)?;
    let list_len = read_u24(msg, &mut pos)?;
    let end = advance(pos, list_len)?;
    if end > msg.len() {
        return Err(TlsMsgError::Truncated);
    }
    // The context and the list must fill the body, as in TLS 1.2.
    if end < msg.len() {
        return Err(TlsMsgError::LengthMismatch);
    }
    let mut certs = presize_certs(list_len);
    while pos < end {
        let cert_len = read_u24(msg, &mut pos)?;
        let cert_end = advance(pos, cert_len)?;
        if cert_end > end {
            return Err(TlsMsgError::Truncated);
        }
        let cert =
            Certificate::from_der(&msg[pos..cert_end]).map_err(TlsMsgError::BadCertificate)?;
        pos = cert_end;
        // extensions<0..2^16-1>
        let ext_end = advance(pos, 2)?;
        if ext_end > end {
            return Err(TlsMsgError::Truncated);
        }
        let ext_len = ((msg[pos] as usize) << 8) | msg[pos + 1] as usize;
        pos = advance(ext_end, ext_len)?;
        if pos > end {
            return Err(TlsMsgError::Truncated);
        }
        certs.push(cert);
    }
    Ok(certs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_crypto::{Group, KeyPair};
    use ccc_x509::{CertificateBuilder, DistinguishedName};

    fn chain() -> Vec<Certificate> {
        let g = Group::simulation_256();
        let root_kp = KeyPair::from_seed(g, b"tls-root");
        let leaf_kp = KeyPair::from_seed(g, b"tls-leaf");
        let root_dn = DistinguishedName::cn("TLS Root");
        let root = CertificateBuilder::ca_profile(root_dn.clone()).self_signed(&root_kp);
        let leaf =
            CertificateBuilder::leaf_profile("tls.sim").issued_by(&leaf_kp.public, root_dn, &root_kp);
        vec![leaf, root]
    }

    #[test]
    fn tls12_roundtrip_preserves_order() {
        let certs = chain();
        let msg = encode_tls12(&certs).unwrap();
        assert_eq!(msg[0], HANDSHAKE_TYPE_CERTIFICATE);
        let decoded = decode_tls12(&msg).unwrap();
        assert_eq!(decoded, certs);

        // Reversed order survives framing untouched (framing must not fix it).
        let mut reversed = certs.clone();
        reversed.reverse();
        let msg = encode_tls12(&reversed).unwrap();
        assert_eq!(decode_tls12(&msg).unwrap(), reversed);
    }

    #[test]
    fn tls13_roundtrip() {
        let certs = chain();
        let msg = encode_tls13(&certs).unwrap();
        assert_eq!(decode_tls13(&msg).unwrap(), certs);
    }

    #[test]
    fn empty_list_roundtrips() {
        let msg = encode_tls12(&[]).unwrap();
        assert!(decode_tls12(&msg).unwrap().is_empty());
        let msg = encode_tls13(&[]).unwrap();
        assert!(decode_tls13(&msg).unwrap().is_empty());
    }

    #[test]
    fn wrong_type_rejected() {
        let certs = chain();
        let mut msg = encode_tls12(&certs).unwrap();
        msg[0] = 2; // ServerHello
        assert_eq!(decode_tls12(&msg).unwrap_err(), TlsMsgError::NotCertificateMessage(2));
    }

    #[test]
    fn truncation_rejected() {
        let certs = chain();
        let msg = encode_tls12(&certs).unwrap();
        for cut in [1usize, 4, 7, msg.len() - 1] {
            assert!(decode_tls12(&msg[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let certs = chain();
        let mut msg = encode_tls12(&certs).unwrap();
        msg[3] = msg[3].wrapping_add(1); // corrupt outer length
        assert!(decode_tls12(&msg).is_err());

        // Four bytes after the certificate list, counted by the outer
        // length: the list must fill the body under either version.
        fn with_trailing_bytes(mut msg: Vec<u8>) -> Vec<u8> {
            msg.extend_from_slice(&[0; 4]);
            let body_len = msg.len() - 4;
            msg[1..4].copy_from_slice(&(body_len as u32).to_be_bytes()[1..]);
            msg
        }
        let one = &certs[..1];
        let msg = with_trailing_bytes(encode_tls12(one).unwrap());
        assert_eq!(decode_tls12(&msg), Err(TlsMsgError::LengthMismatch));
        let msg = with_trailing_bytes(encode_tls13(one).unwrap());
        assert_eq!(decode_tls13(&msg), Err(TlsMsgError::LengthMismatch));
    }

    #[test]
    fn read_u24_near_usize_max_cursor_is_truncated() {
        // A cursor already pushed near usize::MAX must not overflow when
        // advanced by the 3-byte read; it reports truncation instead.
        let data = [0u8; 8];
        let mut pos = usize::MAX - 1;
        assert_eq!(read_u24(&data, &mut pos), Err(TlsMsgError::Truncated));
        // Cursor unchanged on failure.
        assert_eq!(pos, usize::MAX - 1);
    }

    #[test]
    fn max_u24_lengths_on_tiny_input_do_not_panic_or_allocate() {
        // Outer body length declared as 2^24-1 on a 4-byte message.
        let msg = [HANDSHAKE_TYPE_CERTIFICATE, 0xff, 0xff, 0xff];
        assert_eq!(decode_tls12(&msg), Err(TlsMsgError::LengthMismatch));
        assert_eq!(decode_tls13(&msg), Err(TlsMsgError::LengthMismatch));

        // Consistent outer length but max-u24 inner list length: the
        // declared list cannot fit, and pre-sizing must stay capped (a
        // hostile declaration must not reserve 16 MiB worth of entries).
        let mut msg = vec![HANDSHAKE_TYPE_CERTIFICATE];
        push_u24(&mut msg, 3).unwrap(); // body = just the list length
        msg.extend_from_slice(&[0xff, 0xff, 0xff]); // list_len = 0xffffff
        assert_eq!(decode_tls12(&msg), Err(TlsMsgError::LengthMismatch));

        let cap = presize_certs(0xff_ffff).capacity();
        assert!(cap <= 64, "presize cap leaked: {cap}");
    }

    #[test]
    fn tls12_max_cert_len_inside_short_list_is_truncated() {
        // Well-formed outer framing, one entry claiming 2^24-1 bytes.
        let mut list = Vec::new();
        push_u24(&mut list, 0xff_ffff).unwrap();
        let mut body = Vec::new();
        push_u24(&mut body, list.len()).unwrap();
        body.extend_from_slice(&list);
        let mut msg = vec![HANDSHAKE_TYPE_CERTIFICATE];
        push_u24(&mut msg, body.len()).unwrap();
        msg.extend_from_slice(&body);
        assert_eq!(decode_tls12(&msg), Err(TlsMsgError::Truncated));
    }

    #[test]
    fn tls13_corrupt_context_and_extension_lengths_are_truncated() {
        // ctx_len = 0xff with no context bytes behind it.
        let mut body = vec![0xffu8];
        let mut msg = vec![HANDSHAKE_TYPE_CERTIFICATE];
        push_u24(&mut msg, body.len()).unwrap();
        msg.extend_from_slice(&body);
        assert_eq!(decode_tls13(&msg), Err(TlsMsgError::Truncated));

        // Valid message, then corrupt a per-entry ext_len to 0xffff so the
        // cursor would run past the list end.
        let certs = chain();
        let good = encode_tls13(&certs).unwrap();
        // First entry's ext bytes sit right after its DER; find them by
        // re-walking the framing.
        let mut pos = 1 + 3 + 1; // type, body_len, ctx_len(0)
        pos += 3; // list_len
        let cert_len = ((good[pos] as usize) << 16)
            | ((good[pos + 1] as usize) << 8)
            | good[pos + 2] as usize;
        let ext_at = pos + 3 + cert_len;
        let mut bad = good.clone();
        bad[ext_at] = 0xff;
        bad[ext_at + 1] = 0xff;
        assert_eq!(decode_tls13(&bad), Err(TlsMsgError::Truncated));

        // And a max-u24 list length over a truncated tail.
        body = vec![0u8]; // empty context
        body.extend_from_slice(&[0xff, 0xff, 0xff]); // list_len = 0xffffff
        msg = vec![HANDSHAKE_TYPE_CERTIFICATE];
        push_u24(&mut msg, body.len()).unwrap();
        msg.extend_from_slice(&body);
        assert_eq!(decode_tls13(&msg), Err(TlsMsgError::Truncated));
    }

    #[test]
    fn garbage_certificate_rejected() {
        // A message framing one "certificate" of 4 junk bytes.
        let mut list = Vec::new();
        push_u24(&mut list, 4).unwrap();
        list.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let mut body = Vec::new();
        push_u24(&mut body, list.len()).unwrap();
        body.extend_from_slice(&list);
        let mut msg = vec![HANDSHAKE_TYPE_CERTIFICATE];
        push_u24(&mut msg, body.len()).unwrap();
        msg.extend_from_slice(&body);
        match decode_tls12(&msg) {
            Err(TlsMsgError::BadCertificate(_)) => {}
            other => panic!("expected BadCertificate, got {other:?}"),
        }
    }
}

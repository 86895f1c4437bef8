//! DER encoder.

use crate::{Oid, Tag, Time};
use std::io::Write;

/// An append-only DER encoder that writes every value into one buffer.
///
/// Values are appended in order. A constructed value
/// ([`Encoder::sequence`], [`Encoder::set`], [`Encoder::explicit`],
/// [`Encoder::write_constructed`]) writes its tag and a one-octet length,
/// lets its closure append the children to the same buffer, and then
/// patches the length. Content of 128 bytes or more needs the long form:
/// the extra length octets are inserted in front of the content, which
/// moves right once. Lengths therefore come out definite and minimal, as
/// DER requires, with no buffer per constructed value.
#[derive(Default, Clone, Debug)]
pub struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// New empty encoder whose buffer holds `capacity` bytes before it
    /// grows.
    pub fn with_capacity(capacity: usize) -> Encoder {
        Encoder {
            out: Vec::with_capacity(capacity),
        }
    }

    /// Finish and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }

    /// Bytes in the whole buffer. Inside a constructed value's closure this
    /// counts everything written before it too, and the value's own tag
    /// and provisional one-octet length.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Append a complete TLV with the given tag and content octets.
    pub fn write_tlv(&mut self, tag: Tag, content: &[u8]) {
        self.header(tag, content.len());
        self.out.extend_from_slice(content);
    }

    /// Append raw pre-encoded DER (must already be a well-formed TLV run).
    pub fn write_raw(&mut self, der: &[u8]) {
        self.out.extend_from_slice(der);
    }

    /// Append a constructed value whose children are written by `f`.
    pub fn write_constructed(&mut self, tag: Tag, f: impl FnOnce(&mut Encoder)) {
        let start = self.open(tag);
        f(self);
        self.close(start);
    }

    /// Append a SEQUENCE whose children are written by `f`.
    pub fn sequence(&mut self, f: impl FnOnce(&mut Encoder)) {
        self.write_constructed(Tag::SEQUENCE, f);
    }

    /// Append a SET whose children are written by `f`.
    ///
    /// Note: DER requires SET OF elements to be sorted; the X.509 layer only
    /// emits single-element SETs (one attribute per RDN) so no sort is done
    /// here.
    pub fn set(&mut self, f: impl FnOnce(&mut Encoder)) {
        self.write_constructed(Tag::SET, f);
    }

    /// Append an EXPLICIT context tag wrapping children written by `f`.
    pub fn explicit(&mut self, number: u8, f: impl FnOnce(&mut Encoder)) {
        self.write_constructed(Tag::context_constructed(number), f);
    }

    /// Append a BOOLEAN.
    pub fn boolean(&mut self, v: bool) {
        self.write_tlv(Tag::BOOLEAN, &[if v { 0xff } else { 0x00 }]);
    }

    /// Append NULL.
    pub fn null(&mut self) {
        self.write_tlv(Tag::NULL, &[]);
    }

    /// Append an INTEGER from big-endian unsigned magnitude bytes
    /// (canonical two's-complement form is produced; empty input encodes 0).
    pub fn integer_unsigned(&mut self, magnitude_be: &[u8]) {
        let skip = magnitude_be.iter().take_while(|&&b| b == 0).count();
        let stripped = &magnitude_be[skip..];
        // Zero is one 0x00 octet; a set top bit needs a 0x00 sign octet.
        let pad = match stripped.first() {
            None => true,
            Some(&top) => top & 0x80 != 0,
        };
        self.header(Tag::INTEGER, usize::from(pad) + stripped.len());
        if pad {
            self.out.push(0);
        }
        self.out.extend_from_slice(stripped);
    }

    /// Append an INTEGER from an `i64`.
    pub fn integer_i64(&mut self, v: i64) {
        let bytes = v.to_be_bytes();
        // Trim redundant leading bytes while preserving the sign bit.
        let mut start = 0;
        while start < 7 {
            let cur = bytes[start];
            let next_top = bytes[start + 1] & 0x80;
            if (cur == 0x00 && next_top == 0) || (cur == 0xff && next_top != 0) {
                start += 1;
            } else {
                break;
            }
        }
        self.write_tlv(Tag::INTEGER, &bytes[start..]);
    }

    /// Append a BIT STRING with zero unused bits.
    pub fn bit_string(&mut self, data: &[u8]) {
        self.header(Tag::BIT_STRING, data.len() + 1);
        self.out.push(0); // unused bits
        self.out.extend_from_slice(data);
    }

    /// Append a named-bit-list BIT STRING (for KeyUsage). `bits[i]` is bit
    /// `i` in DER named-bit order (bit 0 = most significant bit of first
    /// octet). Trailing zero bits are trimmed per DER.
    pub fn bit_string_named(&mut self, bits: &[bool]) {
        let Some(last) = bits.iter().rposition(|&b| b) else {
            self.write_tlv(Tag::BIT_STRING, &[0]);
            return;
        };
        let nbytes = last / 8 + 1;
        self.header(Tag::BIT_STRING, nbytes + 1);
        self.out.push((7 - last % 8) as u8); // unused bits
        let data = self.out.len();
        self.out.resize(data + nbytes, 0);
        for (i, &bit) in bits.iter().enumerate().take(last + 1) {
            if bit {
                self.out[data + i / 8] |= 0x80 >> (i % 8);
            }
        }
    }

    /// Append an OCTET STRING.
    pub fn octet_string(&mut self, data: &[u8]) {
        self.write_tlv(Tag::OCTET_STRING, data);
    }

    /// Append an OBJECT IDENTIFIER.
    pub fn oid(&mut self, oid: Oid<'_>) {
        self.write_tlv(Tag::OID, oid.as_bytes());
    }

    /// Append a UTF8String.
    pub fn utf8_string(&mut self, s: &str) {
        self.write_tlv(Tag::UTF8_STRING, s.as_bytes());
    }

    /// Append a PrintableString (caller must ensure charset validity).
    pub fn printable_string(&mut self, s: &str) {
        self.write_tlv(Tag::PRINTABLE_STRING, s.as_bytes());
    }

    /// Append an IA5String (caller must ensure ASCII).
    pub fn ia5_string(&mut self, s: &str) {
        self.write_tlv(Tag::IA5_STRING, s.as_bytes());
    }

    /// Append a Time as UTCTime (`YYMMDDHHMMSSZ`) for the years 1950 to
    /// 2049 and as GeneralizedTime (`YYYYMMDDHHMMSSZ`) otherwise, per
    /// RFC 5280 §4.1.2.5. A year outside 0 to 9999, which
    /// [`Time::from_unix`] can produce, is written in as many digits as it
    /// takes, after a sign when negative.
    pub fn time(&mut self, t: Time) {
        let dt = t.to_datetime();
        let utc = (1950..=2049).contains(&dt.year);
        let start = self.open(if utc {
            Tag::UTC_TIME
        } else {
            Tag::GENERALIZED_TIME
        });
        let written = if utc {
            write!(
                self.out,
                "{:02}{:02}{:02}{:02}{:02}{:02}Z",
                dt.year % 100,
                dt.month,
                dt.day,
                dt.hour,
                dt.minute,
                dt.second
            )
        } else {
            write!(
                self.out,
                "{:04}{:02}{:02}{:02}{:02}{:02}Z",
                dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
            )
        };
        written.expect("writing into a Vec cannot fail");
        self.close(start);
    }

    /// Append a tag and the definite length of `len` content octets.
    fn header(&mut self, tag: Tag, len: usize) {
        self.out.push(tag.to_byte());
        if len < 0x80 {
            self.out.push(len as u8);
        } else {
            let bytes = len.to_be_bytes();
            let skip = bytes.iter().take_while(|&&b| b == 0).count();
            self.out.push(0x80 | (bytes.len() - skip) as u8);
            self.out.extend_from_slice(&bytes[skip..]);
        }
    }

    /// Append a tag and a one-octet placeholder length; return where the
    /// content starts, for [`Encoder::close`].
    fn open(&mut self, tag: Tag) -> usize {
        self.out.extend_from_slice(&[tag.to_byte(), 0]);
        self.out.len()
    }

    /// Patch the length of the value whose content starts at `start` and
    /// runs to the end of the buffer. Content of 128 bytes or more gets
    /// the long form, whose extra octets are inserted before the content.
    fn close(&mut self, start: usize) {
        let len = self.out.len() - start;
        if len < 0x80 {
            self.out[start - 1] = len as u8;
            return;
        }
        let bytes = len.to_be_bytes();
        let sig = &bytes[bytes.iter().take_while(|&&b| b == 0).count()..];
        self.out[start - 1] = 0x80 | sig.len() as u8;
        let end = self.out.len();
        self.out.resize(end + sig.len(), 0);
        self.out.copy_within(start..end, start + sig.len());
        self.out[start..start + sig.len()].copy_from_slice(sig);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn short_and_long_lengths() {
        let mut e = Encoder::new();
        e.octet_string(&[0xaa; 5]);
        assert_eq!(&e.finish()[..2], &[0x04, 0x05]);

        let mut e = Encoder::new();
        e.octet_string(&[0xbb; 200]);
        let out = e.finish();
        assert_eq!(&out[..3], &[0x04, 0x81, 200]);

        let mut e = Encoder::new();
        e.octet_string(&[0xcc; 70000]);
        let out = e.finish();
        assert_eq!(&out[..4], &[0x04, 0x83, 0x01, 0x11]);
        assert_eq!(out[4], 0x70);
    }

    #[test]
    fn integers_are_canonical() {
        let mut e = Encoder::new();
        e.integer_unsigned(&[]);
        e.integer_unsigned(&[0x00]);
        e.integer_unsigned(&[0x7f]);
        e.integer_unsigned(&[0x80]);
        e.integer_unsigned(&[0x00, 0x00, 0x01]);
        let out = e.finish();
        assert_eq!(
            out,
            vec![
                0x02, 0x01, 0x00, // 0
                0x02, 0x01, 0x00, // 0
                0x02, 0x01, 0x7f, // 127
                0x02, 0x02, 0x00, 0x80, // 128 needs a leading zero
                0x02, 0x01, 0x01, // 1
            ]
        );
    }

    #[test]
    fn integer_i64_values() {
        let cases: Vec<(i64, Vec<u8>)> = vec![
            (0, vec![0x02, 0x01, 0x00]),
            (1, vec![0x02, 0x01, 0x01]),
            (127, vec![0x02, 0x01, 0x7f]),
            (128, vec![0x02, 0x02, 0x00, 0x80]),
            (256, vec![0x02, 0x02, 0x01, 0x00]),
            (-1, vec![0x02, 0x01, 0xff]),
            (-128, vec![0x02, 0x01, 0x80]),
            (-129, vec![0x02, 0x02, 0xff, 0x7f]),
        ];
        for (v, expected) in cases {
            let mut e = Encoder::new();
            e.integer_i64(v);
            assert_eq!(e.finish(), expected, "value {v}");
        }
    }

    #[test]
    fn boolean_and_null() {
        let mut e = Encoder::new();
        e.boolean(true);
        e.boolean(false);
        e.null();
        assert_eq!(
            e.finish(),
            vec![0x01, 0x01, 0xff, 0x01, 0x01, 0x00, 0x05, 0x00]
        );
    }

    #[test]
    fn nested_sequence() {
        let mut e = Encoder::new();
        e.sequence(|s| {
            s.integer_i64(1);
            s.sequence(|inner| {
                inner.boolean(true);
            });
        });
        assert_eq!(
            e.finish(),
            vec![0x30, 0x08, 0x02, 0x01, 0x01, 0x30, 0x03, 0x01, 0x01, 0xff]
        );
    }

    #[test]
    fn named_bit_string_trims_trailing_zeros() {
        // keyCertSign is bit 5: expect 1 content byte, 2 unused bits.
        let mut bits = vec![false; 9];
        bits[5] = true;
        let mut e = Encoder::new();
        e.bit_string_named(&bits);
        assert_eq!(e.finish(), vec![0x03, 0x02, 0x02, 0x04]);

        // digitalSignature (bit 0) + keyEncipherment (bit 2).
        let mut e = Encoder::new();
        e.bit_string_named(&[true, false, true]);
        assert_eq!(e.finish(), vec![0x03, 0x02, 0x05, 0xa0]);

        // Empty named bit list.
        let mut e = Encoder::new();
        e.bit_string_named(&[false, false]);
        assert_eq!(e.finish(), vec![0x03, 0x01, 0x00]);
    }

    #[test]
    fn bit_string_plain() {
        let mut e = Encoder::new();
        e.bit_string(&[0xde, 0xad]);
        assert_eq!(e.finish(), vec![0x03, 0x03, 0x00, 0xde, 0xad]);
    }

    #[test]
    fn strings() {
        let mut e = Encoder::new();
        e.utf8_string("ab");
        e.printable_string("CD");
        e.ia5_string("e.f");
        assert_eq!(
            e.finish(),
            vec![0x0c, 0x02, b'a', b'b', 0x13, 0x02, b'C', b'D', 0x16, 0x03, b'e', b'.', b'f']
        );
    }

    #[test]
    fn constructed_lengths_at_the_form_boundaries() {
        // (content length of a SEQUENCE, the header of the OCTET STRING
        // that fills it, that SEQUENCE's length octets, and the length
        // octets of a second SEQUENCE around it)
        type Case = (usize, &'static [u8], &'static [u8], &'static [u8]);
        let cases: [Case; 6] = [
            (127, &[0x04, 0x7d], &[0x7f], &[0x81, 0x81]),
            (128, &[0x04, 0x7e], &[0x81, 0x80], &[0x81, 0x83]),
            (255, &[0x04, 0x81, 0xfc], &[0x81, 0xff], &[0x82, 0x01, 0x02]),
            (
                256,
                &[0x04, 0x81, 0xfd],
                &[0x82, 0x01, 0x00],
                &[0x82, 0x01, 0x04],
            ),
            (
                65_535,
                &[0x04, 0x82, 0xff, 0xfb],
                &[0x82, 0xff, 0xff],
                &[0x83, 0x01, 0x00, 0x03],
            ),
            (
                65_536,
                &[0x04, 0x82, 0xff, 0xfc],
                &[0x83, 0x01, 0x00, 0x00],
                &[0x83, 0x01, 0x00, 0x05],
            ),
        ];
        for (len, leaf_header, inner, outer) in cases {
            let data = vec![0x5c; len - leaf_header.len()];

            let mut e = Encoder::new();
            e.sequence(|s| s.octet_string(&data));
            let one = [&[0x30], inner, leaf_header, &data].concat();
            assert_eq!(e.finish(), one, "content {len} in one SEQUENCE");

            // The inner value's long form moves the outer content too.
            let mut e = Encoder::new();
            e.sequence(|s| s.sequence(|t| t.octet_string(&data)));
            let two = [&[0x30], outer, &one].concat();
            assert_eq!(e.finish(), two, "content {len} in two SEQUENCEs");
        }
    }

    #[test]
    fn time_bytes_around_the_utc_window_and_past_four_digits() {
        // The content octets are what `format!` printed for these instants
        // before times were written in place.
        let at = |y, mo, d, h, mi, s| Time::from_ymd_hms(y, mo, d, h, mi, s).unwrap();
        let (utc, generalized) = (Tag::UTC_TIME, Tag::GENERALIZED_TIME);
        let cases = [
            (at(1949, 12, 31, 23, 59, 59), generalized, "19491231235959Z"),
            (at(1950, 1, 1, 0, 0, 0), utc, "500101000000Z"),
            (at(2049, 12, 31, 23, 59, 59), utc, "491231235959Z"),
            (at(2050, 1, 1, 0, 0, 0), generalized, "20500101000000Z"),
            (at(9999, 12, 31, 23, 59, 59), generalized, "99991231235959Z"),
            (at(10000, 1, 1, 0, 0, 0), generalized, "100000101000000Z"),
            (at(-44, 3, 15, 12, 0, 0), generalized, "-0440315120000Z"),
        ];
        for (time, tag, content) in cases {
            let mut e = Encoder::new();
            e.time(time);
            let expected = [&[tag.to_byte(), content.len() as u8], content.as_bytes()].concat();
            assert_eq!(e.finish(), expected, "{content}");
        }
    }

    /// A value in the random trees the writer is checked on.
    #[derive(Debug)]
    enum Node {
        Leaf(Vec<u8>),
        Constructed(Tag, Vec<Node>),
    }

    /// Read the children of a value at `depth` from `script`: each byte
    /// closes the value, opens a constructed child (above depth 4) or
    /// appends an OCTET STRING of 0 to 300 bytes.
    fn children(script: &mut std::slice::Iter<'_, u8>, depth: usize) -> Vec<Node> {
        let mut nodes = Vec::new();
        while let Some(&op) = script.next() {
            match op % 4 {
                0 => break,
                1 if depth < 4 => {
                    let tags = [Tag::SEQUENCE, Tag::SET, Tag::context_constructed(op >> 6)];
                    let tag = tags[usize::from(op >> 2) % 3];
                    nodes.push(Node::Constructed(tag, children(script, depth + 1)));
                }
                _ => {
                    let high = script.next().copied().unwrap_or(0);
                    let len = ((usize::from(high) << 8) | usize::from(op)) % 301;
                    nodes.push(Node::Leaf(vec![op; len]));
                }
            }
        }
        nodes
    }

    fn write_node(e: &mut Encoder, node: &Node) {
        match node {
            Node::Leaf(content) => e.octet_string(content),
            Node::Constructed(tag, kids) => e.write_constructed(*tag, |c| {
                for kid in kids {
                    write_node(c, kid);
                }
            }),
        }
    }

    /// The oracle: every value's content built in a `Vec` of its own and
    /// copied into its parent, as the writer did before it kept one buffer.
    fn reference(node: &Node) -> Vec<u8> {
        let (tag, content) = match node {
            Node::Leaf(content) => (Tag::OCTET_STRING, content.clone()),
            Node::Constructed(tag, kids) => (*tag, kids.iter().flat_map(reference).collect()),
        };
        let mut out = vec![tag.to_byte()];
        if content.len() < 0x80 {
            out.push(content.len() as u8);
        } else {
            let len = content.len().to_be_bytes();
            let sig: Vec<u8> = len.iter().copied().skip_while(|&b| b == 0).collect();
            out.push(0x80 | sig.len() as u8);
            out.extend(sig);
        }
        out.extend(content);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn one_buffer_matches_a_buffer_per_value(
            script in proptest::collection::vec(any::<u8>(), 0..400)
        ) {
            let root = Node::Constructed(Tag::SEQUENCE, children(&mut script.iter(), 1));
            let mut e = Encoder::new();
            write_node(&mut e, &root);
            prop_assert_eq!(e.finish(), reference(&root));
        }
    }
}

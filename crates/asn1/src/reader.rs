//! DER parser.

use crate::{Error, Oid, Result, Tag, Time};

/// A cursor over DER-encoded bytes.
///
/// `Parser` reads TLVs sequentially; constructed values hand back a child
/// parser scoped to their content octets. Lengths must be definite and
/// minimally encoded (DER); violations are reported as
/// [`Error::InvalidLength`].
#[derive(Clone, Debug)]
pub struct Parser<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Parse over `data`.
    pub fn new(data: &'a [u8]) -> Parser<'a> {
        Parser { data, pos: 0 }
    }

    /// True when all input has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Error unless all input was consumed.
    pub fn expect_done(&self) -> Result<()> {
        if self.is_done() {
            Ok(())
        } else {
            Err(Error::TrailingData)
        }
    }

    /// Peek the next tag without consuming.
    pub fn peek_tag(&self) -> Result<Tag> {
        let b = *self.data.get(self.pos).ok_or(Error::Truncated)?;
        Tag::from_byte(b)
    }

    /// Read the next TLV, returning its tag and content octets.
    pub fn read_any(&mut self) -> Result<(Tag, &'a [u8])> {
        let tag = self.peek_tag()?;
        self.pos += 1;
        let len = self.read_length()?;
        if self.remaining() < len {
            return Err(Error::Truncated);
        }
        let content = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok((tag, content))
    }

    /// Read the next TLV including its header, returning the full encoding.
    pub fn read_any_raw(&mut self) -> Result<(Tag, &'a [u8])> {
        let start = self.pos;
        let (tag, _) = self.read_any()?;
        Ok((tag, &self.data[start..self.pos]))
    }

    /// Read a TLV and check its tag.
    pub fn read_expected(&mut self, expected: Tag) -> Result<&'a [u8]> {
        let found = self.peek_tag()?;
        if found != expected {
            return Err(Error::UnexpectedTag { expected, found });
        }
        let (_, content) = self.read_any()?;
        Ok(content)
    }

    /// Enter a SEQUENCE, handing its contents to `f` as a child parser.
    /// `f` must consume the entire sequence body.
    pub fn sequence<T>(&mut self, f: impl FnOnce(&mut Parser<'a>) -> Result<T>) -> Result<T> {
        self.constructed(Tag::SEQUENCE, f)
    }

    /// Enter a SET.
    pub fn set<T>(&mut self, f: impl FnOnce(&mut Parser<'a>) -> Result<T>) -> Result<T> {
        self.constructed(Tag::SET, f)
    }

    /// Enter any constructed value with the given tag.
    pub fn constructed<T>(
        &mut self,
        tag: Tag,
        f: impl FnOnce(&mut Parser<'a>) -> Result<T>,
    ) -> Result<T> {
        let content = self.read_expected(tag)?;
        let mut child = Parser::new(content);
        let value = f(&mut child)?;
        child.expect_done()?;
        Ok(value)
    }

    /// If the next tag matches, enter it; otherwise return `None` without
    /// consuming anything.
    pub fn optional_constructed<T>(
        &mut self,
        tag: Tag,
        f: impl FnOnce(&mut Parser<'a>) -> Result<T>,
    ) -> Result<Option<T>> {
        if !self.is_done() && self.peek_tag()? == tag {
            Ok(Some(self.constructed(tag, f)?))
        } else {
            Ok(None)
        }
    }

    /// Read a BOOLEAN.
    pub fn boolean(&mut self) -> Result<bool> {
        let content = self.read_expected(Tag::BOOLEAN)?;
        match content {
            [0x00] => Ok(false),
            [0xff] => Ok(true),
            // DER requires TRUE to be 0xff.
            _ => Err(Error::InvalidValue("non-canonical BOOLEAN")),
        }
    }

    /// Read NULL.
    pub fn null(&mut self) -> Result<()> {
        let content = self.read_expected(Tag::NULL)?;
        if content.is_empty() {
            Ok(())
        } else {
            Err(Error::InvalidValue("NULL with content"))
        }
    }

    /// Read an INTEGER, returning its content octets (two's complement,
    /// canonical).
    pub fn integer_bytes(&mut self) -> Result<&'a [u8]> {
        let content = self.read_expected(Tag::INTEGER)?;
        validate_integer(content)?;
        Ok(content)
    }

    /// Read a non-negative INTEGER as unsigned magnitude bytes (the leading
    /// sign byte, if any, is stripped). Errors on negative values.
    pub fn integer_unsigned(&mut self) -> Result<&'a [u8]> {
        let content = self.integer_bytes()?;
        if content[0] & 0x80 != 0 {
            return Err(Error::InvalidValue("unexpected negative INTEGER"));
        }
        Ok(if content.len() > 1 && content[0] == 0 {
            &content[1..]
        } else {
            content
        })
    }

    /// Read an INTEGER as `i64` (errors when out of range).
    pub fn integer_i64(&mut self) -> Result<i64> {
        let content = self.integer_bytes()?;
        if content.len() > 8 {
            return Err(Error::InvalidValue("INTEGER too large for i64"));
        }
        let negative = content[0] & 0x80 != 0;
        let mut acc: i64 = if negative { -1 } else { 0 };
        for &b in content {
            acc = (acc << 8) | b as i64;
        }
        Ok(acc)
    }

    /// Read a BIT STRING, returning `(unused_bits, data)`.
    pub fn bit_string(&mut self) -> Result<(u8, &'a [u8])> {
        let content = self.read_expected(Tag::BIT_STRING)?;
        let (&unused, data) = content
            .split_first()
            .ok_or(Error::InvalidValue("empty BIT STRING"))?;
        if unused > 7 || (data.is_empty() && unused != 0) {
            return Err(Error::InvalidValue("invalid BIT STRING unused bits"));
        }
        Ok((unused, data))
    }

    /// Read an OCTET STRING.
    pub fn octet_string(&mut self) -> Result<&'a [u8]> {
        self.read_expected(Tag::OCTET_STRING)
    }

    /// Read an OBJECT IDENTIFIER, borrowing its content octets.
    pub fn oid(&mut self) -> Result<Oid<'a>> {
        Oid::from_content(self.read_expected(Tag::OID)?)
    }

    /// Read any of the supported string types, returning its text.
    pub fn any_string(&mut self) -> Result<&'a str> {
        let tag = self.peek_tag()?;
        if tag != Tag::UTF8_STRING && tag != Tag::PRINTABLE_STRING && tag != Tag::IA5_STRING {
            return Err(Error::UnexpectedTag {
                expected: Tag::UTF8_STRING,
                found: tag,
            });
        }
        let (_, content) = self.read_any()?;
        std::str::from_utf8(content).map_err(|_| Error::InvalidValue("invalid UTF-8 in string"))
    }

    /// Read a Time (UTCTime or GeneralizedTime).
    pub fn time(&mut self) -> Result<Time> {
        let tag = self.peek_tag()?;
        let (_, content) = self.read_any()?;
        match tag {
            Tag::UTC_TIME => Time::decode_utc_time(content),
            Tag::GENERALIZED_TIME => Time::decode_generalized_time(content),
            found => Err(Error::UnexpectedTag {
                expected: Tag::UTC_TIME,
                found,
            }),
        }
    }

    fn read_length(&mut self) -> Result<usize> {
        let first = *self.data.get(self.pos).ok_or(Error::Truncated)?;
        self.pos += 1;
        if first < 0x80 {
            return Ok(first as usize);
        }
        if first == 0x80 {
            // Indefinite length: BER only, forbidden in DER.
            return Err(Error::InvalidLength);
        }
        let nbytes = (first & 0x7f) as usize;
        if nbytes > 8 || self.remaining() < nbytes {
            return Err(if nbytes > 8 {
                Error::InvalidLength
            } else {
                Error::Truncated
            });
        }
        let mut len: usize = 0;
        for i in 0..nbytes {
            len = (len << 8) | self.data[self.pos + i] as usize;
        }
        self.pos += nbytes;
        // DER: length must use the minimal number of octets.
        if len < 0x80 || (nbytes > 1 && len >> ((nbytes - 1) * 8) == 0) {
            return Err(Error::InvalidLength);
        }
        Ok(len)
    }
}

fn validate_integer(content: &[u8]) -> Result<()> {
    match content {
        [] => Err(Error::InvalidValue("empty INTEGER")),
        // Redundant leading 0x00 (next byte's top bit clear) or 0xff (set).
        [0x00, rest, ..] if rest & 0x80 == 0 => Err(Error::InvalidValue("non-minimal INTEGER")),
        [0xff, rest, ..] if rest & 0x80 != 0 => Err(Error::InvalidValue("non-minimal INTEGER")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;

    #[test]
    fn roundtrip_via_encoder() {
        let mut e = Encoder::new();
        e.sequence(|s| {
            s.integer_i64(42);
            s.boolean(true);
            s.octet_string(b"hello");
            s.oid(crate::oids::SUBJECT_KEY_IDENTIFIER);
            s.utf8_string("example.com");
            s.null();
        });
        let der = e.finish();
        let mut p = Parser::new(&der);
        p.sequence(|s| {
            assert_eq!(s.integer_i64()?, 42);
            assert!(s.boolean()?);
            assert_eq!(s.octet_string()?, b"hello");
            assert_eq!(s.oid()?.to_string(), "2.5.29.14");
            assert_eq!(s.any_string()?, "example.com");
            s.null()?;
            Ok(())
        })
        .unwrap();
        p.expect_done().unwrap();
    }

    #[test]
    fn trailing_data_detected() {
        let mut e = Encoder::new();
        e.integer_i64(1);
        let mut der = e.finish();
        der.push(0x00);
        let mut p = Parser::new(&der);
        p.integer_i64().unwrap();
        assert_eq!(p.expect_done(), Err(Error::TrailingData));
    }

    #[test]
    fn truncated_input() {
        let der = [0x30, 0x05, 0x02, 0x01];
        let mut p = Parser::new(&der);
        assert_eq!(p.read_any().unwrap_err(), Error::Truncated);
    }

    #[test]
    fn indefinite_length_rejected() {
        let der = [0x30, 0x80, 0x00, 0x00];
        let mut p = Parser::new(&der);
        assert_eq!(p.read_any().unwrap_err(), Error::InvalidLength);
    }

    #[test]
    fn non_minimal_length_rejected() {
        // Length 5 encoded in long form.
        let der = [0x04, 0x81, 0x05, 1, 2, 3, 4, 5];
        let mut p = Parser::new(&der);
        assert_eq!(p.read_any().unwrap_err(), Error::InvalidLength);
    }

    #[test]
    fn non_canonical_boolean_rejected() {
        let der = [0x01, 0x01, 0x01];
        let mut p = Parser::new(&der);
        assert!(p.boolean().is_err());
    }

    #[test]
    fn non_minimal_integer_rejected() {
        let der = [0x02, 0x02, 0x00, 0x01];
        let mut p = Parser::new(&der);
        assert!(p.integer_bytes().is_err());
        let der = [0x02, 0x02, 0xff, 0xff];
        let mut p = Parser::new(&der);
        assert!(p.integer_bytes().is_err());
    }

    #[test]
    fn integer_unsigned_strips_sign_byte() {
        let mut e = Encoder::new();
        e.integer_unsigned(&[0x80, 0x01]);
        let der = e.finish();
        let mut p = Parser::new(&der);
        assert_eq!(p.integer_unsigned().unwrap(), &[0x80, 0x01]);

        let mut e = Encoder::new();
        e.integer_i64(-5);
        let der = e.finish();
        let mut p = Parser::new(&der);
        assert!(p.integer_unsigned().is_err());
    }

    #[test]
    fn integer_i64_roundtrip() {
        for v in [0i64, 1, -1, 127, 128, -128, -129, i64::MAX, i64::MIN] {
            let mut e = Encoder::new();
            e.integer_i64(v);
            let der = e.finish();
            let mut p = Parser::new(&der);
            assert_eq!(p.integer_i64().unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn bit_string_unused_bits() {
        let der = [0x03, 0x02, 0x04, 0xb0];
        let mut p = Parser::new(&der);
        let (unused, data) = p.bit_string().unwrap();
        assert_eq!(unused, 4);
        assert_eq!(data, &[0xb0]);

        let bad = [0x03, 0x01, 0x08];
        assert!(Parser::new(&bad).bit_string().is_err());
        let empty = [0x03, 0x00];
        assert!(Parser::new(&empty).bit_string().is_err());
    }

    #[test]
    fn optional_constructed() {
        let mut e = Encoder::new();
        e.explicit(3, |x| x.integer_i64(9));
        let der = e.finish();
        let mut p = Parser::new(&der);
        let missing = p
            .optional_constructed(Tag::context_constructed(0), |x| x.integer_i64())
            .unwrap();
        assert!(missing.is_none());
        let present = p
            .optional_constructed(Tag::context_constructed(3), |x| x.integer_i64())
            .unwrap();
        assert_eq!(present, Some(9));
    }

    #[test]
    fn sequence_must_be_fully_consumed() {
        let mut e = Encoder::new();
        e.sequence(|s| {
            s.integer_i64(1);
            s.integer_i64(2);
        });
        let der = e.finish();
        let mut p = Parser::new(&der);
        let err = p.sequence(|s| s.integer_i64()).unwrap_err();
        assert_eq!(err, Error::TrailingData);
    }

    #[test]
    fn read_any_raw_includes_header() {
        let mut e = Encoder::new();
        e.integer_i64(7);
        let der = e.finish();
        let mut p = Parser::new(&der);
        let (tag, raw) = p.read_any_raw().unwrap();
        assert_eq!(tag, Tag::INTEGER);
        assert_eq!(raw, &der[..]);
    }
}

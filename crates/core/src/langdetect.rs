//! Lightweight language detection.
//!
//! §7.1 runs `langdetect` over Feed Generator descriptions. This detector
//! covers the languages the study reports (English, Japanese, German, Korean,
//! French, Portuguese, Spanish) using script ranges and stop-word evidence —
//! intentionally imperfect, like the original tool, but with known behaviour.

/// Detect the language of a short text. Returns a BCP-47 code or `"und"`.
pub(crate) fn detect(text: &str) -> &'static str {
    let mut kana_or_kanji = 0usize;
    let mut hangul = 0usize;
    let mut total_alpha = 0usize;
    for c in text.chars() {
        let cp = c as u32;
        if (0x3040..=0x30FF).contains(&cp) || (0x4E00..=0x9FFF).contains(&cp) {
            kana_or_kanji += 1;
        }
        if (0xAC00..=0xD7AF).contains(&cp) || (0x1100..=0x11FF).contains(&cp) {
            hangul += 1;
        }
        if c.is_alphabetic() {
            total_alpha += 1;
        }
    }
    if total_alpha == 0 {
        return "und";
    }
    if kana_or_kanji * 4 >= total_alpha {
        return "ja";
    }
    if hangul * 4 >= total_alpha {
        return "ko";
    }
    let lower = format!(" {} ", text.to_lowercase());
    let evidence: [(&str, &[&str]); 6] = [
        (
            "de",
            &[
                " der ",
                " die ",
                " das ",
                " und ",
                " für ",
                " alle ",
                " über ",
                " beiträge ",
                " rund ",
            ],
        ),
        (
            "pt",
            &[
                " de ",
                " para ",
                " com ",
                " sobre ",
                " tudo ",
                " notícias ",
                " música ",
                " arte ",
            ],
        ),
        (
            "fr",
            &[
                " le ", " la ", " les ", " des ", " pour ", " avec ", " sur ",
            ],
        ),
        (
            "es",
            &[" el ", " los ", " las ", " para ", " sobre ", " todo "],
        ),
        (
            "en",
            &[
                " the ",
                " a ",
                " of ",
                " about ",
                " all ",
                " posts ",
                " feed ",
                " best ",
                " new ",
                " collecting ",
                " tagged ",
            ],
        ),
        ("und", &[]),
    ];
    let mut best = ("und", 0usize);
    for (lang, words) in evidence {
        let hits = words.iter().filter(|w| lower.contains(*w)).count();
        if hits > best.1 {
            best = (lang, hits);
        }
    }
    if best.1 == 0 {
        // Latin script with no stop-word evidence: default to English, the
        // plurality class (matching langdetect's bias on short texts).
        "en"
    } else {
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_major_languages() {
        assert_eq!(detect("a feed collecting posts about art"), "en");
        assert_eq!(detect("の最新ポストを集めたフィード art"), "ja");
        assert_eq!(detect("feed für alle posts über politik"), "de");
        assert_eq!(detect("feed com posts sobre música"), "pt");
        assert_eq!(detect("한국어 포스트 피드"), "ko");
        assert_eq!(detect("le meilleur feed pour les chats"), "fr");
        assert_eq!(detect(""), "und");
        assert_eq!(detect("12345 !!!"), "und");
        assert_eq!(detect("xkcd"), "en");
    }
}

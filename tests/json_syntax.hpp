/**
 * @file
 * Strict JSON syntax check for tests (RFC 8259 grammar): exactly one
 * value with optional surrounding whitespace, and no raw control
 * bytes inside strings. It lets a test prove that a writer's output
 * parses without pulling in a JSON library; it builds no document and
 * does not check UTF-8.
 */
#ifndef DIAG_TESTS_JSON_SYNTAX_HPP
#define DIAG_TESTS_JSON_SYNTAX_HPP

#include <cstddef>
#include <cstring>
#include <string>

namespace diag::test
{

/** Recursive-descent recognizer behind isValidJson(). */
struct JsonSyntax
{
    const std::string &s;
    size_t pos = 0;

    char peek() const { return pos < s.size() ? s[pos] : '\0'; }
    /** Consume the next byte if it is one of @p set. */
    bool
    eat(const char *set)
    {
        if (peek() == '\0' || !std::strchr(set, peek()))
            return false;
        ++pos;
        return true;
    }
    void ws() { while (eat(" \t\r\n")) {} }
    bool
    digits()
    {
        const size_t start = pos;
        while (eat("0123456789")) {}
        return pos > start;
    }

    bool
    value()
    {
        switch (peek()) {
          case '{': return members('}', true);
          case '[': return members(']', false);
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    /** An object (keyed) or array, from its opening bracket. */
    bool
    members(char close, bool keyed)
    {
        const char end[] = {close, '\0'};
        ++pos;
        ws();
        if (eat(end))
            return true;
        do {
            ws();
            if (keyed) {
                if (peek() != '"' || !string())
                    return false;
                ws();
                if (!eat(":"))
                    return false;
                ws();
            }
            if (!value())
                return false;
            ws();
        } while (eat(","));
        return eat(end);
    }

    bool
    string()
    {
        ++pos;
        while (pos < s.size()) {
            const auto c = static_cast<unsigned char>(s[pos++]);
            if (c == '"')
                return true;
            if (c < 0x20)
                return false;
            if (c != '\\')
                continue;
            if (!eat("\"\\/bfnrtu"))
                return false;
            if (s[pos - 1] == 'u')
                for (int k = 0; k < 4; ++k)
                    if (!eat("0123456789abcdefABCDEF"))
                        return false;
        }
        return false;
    }

    bool
    number()
    {
        eat("-");
        if (!eat("0") && !digits())
            return false;
        if (eat(".") && !digits())
            return false;
        if (eat("eE")) {
            eat("+-");
            if (!digits())
                return false;
        }
        return true;
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::strlen(word);
        if (s.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }
};

/** True iff @p text is exactly one valid JSON value. */
inline bool
isValidJson(const std::string &text)
{
    JsonSyntax p{text};
    p.ws();
    const bool ok = p.value();
    p.ws();
    return ok && p.pos == text.size();
}

} // namespace diag::test

#endif // DIAG_TESTS_JSON_SYNTAX_HPP

#include "io/json.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace gld {
namespace io {

Json
Json::boolean(bool b)
{
    Json j;
    j.type_ = Type::kBool;
    j.bool_ = b;
    return j;
}

Json
Json::integer(int64_t v)
{
    Json j;
    j.type_ = Type::kInt;
    j.int_ = v;
    return j;
}

Json
Json::number(double v)
{
    Json j;
    j.type_ = Type::kDouble;
    j.dbl_ = v;
    return j;
}

Json
Json::str(std::string s)
{
    Json j;
    j.type_ = Type::kString;
    j.str_ = std::move(s);
    return j;
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::kArray;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::kObject;
    return j;
}

namespace {

[[noreturn]] void
type_error(const char* want, Json::Type got)
{
    static const char* names[] = {"null",   "bool",  "int",   "double",
                                  "string", "array", "object"};
    throw std::runtime_error(std::string("json: expected ") + want +
                             ", got " + names[static_cast<int>(got)]);
}

}  // namespace

bool
Json::as_bool() const
{
    if (type_ != Type::kBool)
        type_error("bool", type_);
    return bool_;
}

int64_t
Json::as_int() const
{
    if (type_ != Type::kInt)
        type_error("int", type_);
    return int_;
}

double
Json::as_double() const
{
    if (type_ == Type::kInt)
        return static_cast<double>(int_);
    if (type_ != Type::kDouble)
        type_error("number", type_);
    return dbl_;
}

const std::string&
Json::as_str() const
{
    if (type_ != Type::kString)
        type_error("string", type_);
    return str_;
}

void
Json::push(Json v)
{
    if (type_ != Type::kArray)
        type_error("array", type_);
    arr_.push_back(std::move(v));
}

size_t
Json::size() const
{
    if (type_ == Type::kArray)
        return arr_.size();
    if (type_ == Type::kObject)
        return obj_.size();
    type_error("array", type_);
}

const Json&
Json::at(size_t i) const
{
    if (type_ != Type::kArray)
        type_error("array", type_);
    if (i >= arr_.size())
        throw std::runtime_error("json: array index out of range");
    return arr_[i];
}

void
Json::set(const std::string& key, Json v)
{
    if (type_ != Type::kObject)
        type_error("object", type_);
    for (auto& kv : obj_) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return;
        }
    }
    obj_.emplace_back(key, std::move(v));
}

bool
Json::has(const std::string& key) const
{
    if (type_ != Type::kObject)
        type_error("object", type_);
    for (const auto& kv : obj_) {
        if (kv.first == key)
            return true;
    }
    return false;
}

const Json&
Json::operator[](const std::string& key) const
{
    if (type_ != Type::kObject)
        type_error("object", type_);
    for (const auto& kv : obj_) {
        if (kv.first == key)
            return kv.second;
    }
    throw std::runtime_error("json: missing key \"" + key + "\"");
}

const std::vector<std::pair<std::string, Json>>&
Json::items() const
{
    if (type_ != Type::kObject)
        type_error("object", type_);
    return obj_;
}

int
int_field(const Json& j, const std::string& key)
{
    const int64_t v = j[key].as_int();
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
        throw std::runtime_error("json: \"" + key + "\" " +
                                 std::to_string(v) + " does not fit in int");
    return static_cast<int>(v);
}

int64_t
count_value(const Json& v, const std::string& what)
{
    const int64_t n = v.as_int();
    if (n < 0)
        throw std::runtime_error("json: \"" + what + "\" " +
                                 std::to_string(n) + " is a negative count");
    return n;
}

// --- Writer. ---

namespace {

void
dump_string(std::string* out, const std::string& s)
{
    out->push_back('"');
    for (char c : s) {
        switch (c) {
            case '"': *out += "\\\""; break;
            case '\\': *out += "\\\\"; break;
            case '\b': *out += "\\b"; break;
            case '\f': *out += "\\f"; break;
            case '\n': *out += "\\n"; break;
            case '\r': *out += "\\r"; break;
            case '\t': *out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned char>(c));
                    *out += buf;
                } else {
                    out->push_back(c);
                }
        }
    }
    out->push_back('"');
}

void
newline_indent(std::string* out, int indent, int depth)
{
    if (indent < 0)
        return;
    out->push_back('\n');
    out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void
Json::dump_to(std::string* out, int indent, int depth) const
{
    char buf[64];
    switch (type_) {
        case Type::kNull:
            *out += "null";
            break;
        case Type::kBool:
            *out += bool_ ? "true" : "false";
            break;
        case Type::kInt:
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(int_));
            *out += buf;
            break;
        case Type::kDouble:
            // JSON has no inf/nan literal — emitting one would produce a
            // document our own parser rejects.  Non-finite metric values
            // belong in the hex encoding of serialize.h, never here.
            if (!std::isfinite(dbl_))
                throw std::runtime_error(
                    "json: cannot dump non-finite number (use the hex "
                    "bit-pattern encoding for such fields)");
            // %.17g round-trips binary64; bit-critical fields go through
            // the hex encoding in serialize.h instead of this path.
            std::snprintf(buf, sizeof(buf), "%.17g", dbl_);
            *out += buf;
            // Keep the canonical form unambiguous for re-parsing as double.
            if (std::strpbrk(buf, ".eE") == nullptr)
                *out += ".0";
            break;
        case Type::kString:
            dump_string(out, str_);
            break;
        case Type::kArray:
            out->push_back('[');
            for (size_t i = 0; i < arr_.size(); ++i) {
                if (i)
                    out->push_back(',');
                newline_indent(out, indent, depth + 1);
                arr_[i].dump_to(out, indent, depth + 1);
            }
            if (!arr_.empty())
                newline_indent(out, indent, depth);
            out->push_back(']');
            break;
        case Type::kObject:
            out->push_back('{');
            for (size_t i = 0; i < obj_.size(); ++i) {
                if (i)
                    out->push_back(',');
                newline_indent(out, indent, depth + 1);
                dump_string(out, obj_[i].first);
                out->push_back(':');
                if (indent >= 0)
                    out->push_back(' ');
                obj_[i].second.dump_to(out, indent, depth + 1);
            }
            if (!obj_.empty())
                newline_indent(out, indent, depth);
            out->push_back('}');
            break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dump_to(&out, indent, 0);
    return out;
}

// --- Parser: recursive descent over the full text. ---

namespace {

class Parser {
  public:
    explicit Parser(const std::string& text) : text_(text) {}

    Json parse_document()
    {
        Json v = parse_value();
        skip_ws();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string& why)
    {
        throw std::runtime_error("json parse error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    void skip_ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* lit)
    {
        const size_t n = std::strlen(lit);
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json parse_value()
    {
        skip_ws();
        switch (peek()) {
            case '{':
            case '[': {
                // The cap bounds the recursion: a hostile document of a
                // million '[' would otherwise overflow the stack instead
                // of being refused.
                if (depth_ >= kMaxDepth)
                    fail("nesting deeper than " + std::to_string(kMaxDepth));
                ++depth_;
                Json v = peek() == '{' ? parse_object() : parse_array();
                --depth_;
                return v;
            }
            case '"': return Json::str(parse_string());
            case 't':
                if (consume_literal("true"))
                    return Json::boolean(true);
                fail("bad literal");
            case 'f':
                if (consume_literal("false"))
                    return Json::boolean(false);
                fail("bad literal");
            case 'n':
                if (consume_literal("null"))
                    return Json::null();
                fail("bad literal");
            default: return parse_number();
        }
    }

    Json parse_object()
    {
        expect('{');
        Json obj = Json::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            obj.set(key, parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json parse_array()
    {
        expect('[');
        Json arr = Json::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            arr.push(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string parse_string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("short \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("bad \\u escape digit");
                    }
                    // Serialize the code point as UTF-8 (BMP only — our
                    // writer never emits surrogate pairs).
                    if (cp < 0x80) {
                        out.push_back(static_cast<char>(cp));
                    } else if (cp < 0x800) {
                        out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
                        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
                        out.push_back(
                            static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                    }
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    Json parse_number()
    {
        const size_t start = pos_;
        bool is_double = false;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_double = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("expected a value");
        const std::string tok = text_.substr(start, pos_ - start);
        errno = 0;
        char* end = nullptr;
        if (is_double) {
            double v = std::strtod(tok.c_str(), &end);
            if (end != tok.c_str() + tok.size())
                fail("malformed number");
            // e.g. "1e999": strtod saturates to inf with ERANGE — reject
            // rather than admit a non-finite value dump() cannot emit.
            if (errno == ERANGE && !std::isfinite(v))
                fail("number out of double range");
            return Json::number(v);
        }
        long long v = std::strtoll(tok.c_str(), &end, 10);
        if (end != tok.c_str() + tok.size() || errno == ERANGE)
            fail("malformed integer");
        return Json::integer(v);
    }

    static constexpr int kMaxDepth = 512;

    const std::string& text_;
    size_t pos_ = 0;
    int depth_ = 0;
};

}  // namespace

Json
Json::parse(const std::string& text)
{
    return Parser(text).parse_document();
}

// --- File helpers. ---

std::string
read_file(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw std::runtime_error("cannot open " + path + ": " +
                                 std::strerror(errno));
    std::string out;
    char buf[1 << 14];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad)
        throw std::runtime_error("read error on " + path);
    return out;
}

void
write_file_atomic(const std::string& path, const std::string& content)
{
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        throw std::runtime_error("cannot create " + tmp + ": " +
                                 std::strerror(errno));
    const size_t written = std::fwrite(content.data(), 1, content.size(), f);
    const bool bad = written != content.size() || std::fflush(f) != 0;
    std::fclose(f);
    if (bad) {
        std::remove(tmp.c_str());
        throw std::runtime_error("write error on " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot rename " + tmp + " to " + path);
    }
}

void
append_line(const std::string& path, const std::string& line)
{
    std::FILE* f = std::fopen(path.c_str(), "ab");
    if (f == nullptr)
        throw std::runtime_error("cannot open " + path + ": " +
                                 std::strerror(errno));
    std::string buf = line;
    buf += '\n';
    const size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
    const bool bad = written != buf.size() || std::fflush(f) != 0;
    std::fclose(f);
    if (bad)
        throw std::runtime_error("write error on " + path);
}

bool
file_exists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

void
make_dirs(const std::string& path)
{
    if (path.empty())
        return;
    std::string prefix;
    size_t pos = 0;
    while (pos != std::string::npos) {
        const size_t next = path.find('/', pos + 1);
        prefix = next == std::string::npos ? path : path.substr(0, next);
        if (!prefix.empty() && prefix != "/") {
            if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST)
                throw std::runtime_error("cannot mkdir " + prefix + ": " +
                                         std::strerror(errno));
        }
        pos = next;
    }
}

}  // namespace io
}  // namespace gld

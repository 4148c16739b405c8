#include "ir/serialize.h"

#include <charconv>
#include <map>
#include <set>
#include <string_view>

#include "ir/verifier.h"

namespace portend::ir {

namespace {

/** Opcode <-> mnemonic table (mnemonics from opName). */
std::map<std::string, Op, std::less<>>
opTable()
{
    std::map<std::string, Op, std::less<>> t;
    for (int i = 0; i <= static_cast<int>(Op::Assert); ++i) {
        Op op = static_cast<Op>(i);
        t[opName(op)] = op;
    }
    return t;
}

std::map<std::string, sym::ExprKind, std::less<>>
kindTable()
{
    std::map<std::string, sym::ExprKind, std::less<>> t;
    for (int i = 0; i <= static_cast<int>(sym::ExprKind::Ite); ++i) {
        sym::ExprKind k = static_cast<sym::ExprKind>(i);
        t[sym::kindName(k)] = k;
    }
    return t;
}

// -- Writing ---------------------------------------------------------

/** Append @p v in decimal. */
void
appendInt(std::string &out, std::int64_t v)
{
    char buf[24];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

/** Append " <v>". */
void
putInt(std::string &out, std::int64_t v)
{
    out += ' ';
    appendInt(out, v);
}

/** Append " <o>": r<N>, i<V>, or _. */
void
putOperand(std::string &out, const Operand &o)
{
    if (o.isReg()) {
        out += " r";
        appendInt(out, o.reg);
    } else if (o.isImm()) {
        out += " i";
        appendInt(out, o.imm);
    } else {
        out += " _";
    }
}

/** Append " \"<s>\"" with quotes and backslashes escaped. */
void
putQuoted(std::string &out, const std::string &s)
{
    out += " \"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
}

// -- Reading ---------------------------------------------------------

/** Whitespace between tokens: what operator>> skips in the C locale. */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f' || c == '\n';
}

/**
 * A whole-token integer: an optional '+' or '-', then decimal digits,
 * in range for @p T. Anything else in the token rejects it.
 */
template <typename T>
bool
parseInt(std::string_view tok, T &out)
{
    // from_chars takes a '-' but not a '+'.
    if (!tok.empty() && tok[0] == '+') {
        tok.remove_prefix(1);
        if (!tok.empty() && tok[0] == '-')
            return false;
    }
    const char *end = tok.data() + tok.size();
    const std::from_chars_result r =
        std::from_chars(tok.data(), end, out);
    return r.ec == std::errc() && r.ptr == end;
}

bool
parseOperand(std::string_view tok, Operand &out)
{
    if (tok == "_") {
        out = Operand();
        return true;
    }
    if (tok.size() < 2)
        return false;
    if (tok[0] == 'r') {
        Reg r = 0;
        if (!parseInt(tok.substr(1), r))
            return false;
        out = Operand::r(r);
        return true;
    }
    if (tok[0] == 'i') {
        std::int64_t v = 0;
        if (!parseInt(tok.substr(1), v))
            return false;
        out = Operand::i(v);
        return true;
    }
    return false;
}

/** Cursor over the tokens of one line. */
class LineReader
{
  public:
    explicit LineReader(std::string_view line) : rest_(line) {}

    /** The next whitespace-delimited token; empty at end of line. */
    std::string_view
    token()
    {
        skipSpace();
        std::size_t n = 0;
        while (n < rest_.size() && !isSpace(rest_[n]))
            n += 1;
        const std::string_view tok = rest_.substr(0, n);
        rest_.remove_prefix(n);
        return tok;
    }

    /** The next token as a whole-token integer (see parseInt). */
    template <typename T>
    bool
    integer(T &out)
    {
        return parseInt(token(), out);
    }

    /**
     * The next token as a quoted string: '"', then any bytes with
     * '\\' escaping the byte after it, then '"' ending the token.
     * The bytes between the quotes are kept exactly, whitespace
     * included.
     */
    bool
    quoted(std::string &out)
    {
        skipSpace();
        if (rest_.empty() || rest_[0] != '"')
            return false;
        out.clear();
        std::size_t i = 1;
        for (; i < rest_.size() && rest_[i] != '"'; ++i) {
            if (rest_[i] == '\\' && i + 1 < rest_.size())
                i += 1;
            out += rest_[i];
        }
        if (i == rest_.size())
            return false; // no closing quote
        rest_.remove_prefix(i + 1);
        return rest_.empty() || isSpace(rest_[0]);
    }

  private:
    void
    skipSpace()
    {
        while (!rest_.empty() && isSpace(rest_[0]))
            rest_.remove_prefix(1);
    }

    std::string_view rest_;
};

/** Split off the next '\n'-terminated line; false at end of text. */
bool
nextLine(std::string_view &rest, std::string_view &line)
{
    if (rest.empty())
        return false;
    const std::size_t nl = rest.find('\n');
    line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size()
                                                    : nl + 1);
    return true;
}

} // namespace

std::string
serializeProgram(const Program &p)
{
    std::size_t insts = 0;
    for (const auto &f : p.functions)
        for (const auto &b : f.blocks)
            insts += b.insts.size();
    std::string out;
    out.reserve(256 + 96 * insts);

    out += "pil v1";
    putQuoted(out, p.name);
    out += '\n';
    for (const auto &g : p.globals) {
        out += "global";
        putQuoted(out, g.name);
        putInt(out, g.size);
        for (std::int64_t v : g.init)
            putInt(out, v);
        out += '\n';
    }
    for (const auto &m : p.mutex_names) {
        out += "mutex";
        putQuoted(out, m);
        out += '\n';
    }
    for (const auto &c : p.cond_names) {
        out += "cond";
        putQuoted(out, c);
        out += '\n';
    }
    for (std::size_t i = 0; i < p.barrier_names.size(); ++i) {
        out += "barrier";
        putQuoted(out, p.barrier_names[i]);
        putInt(out, p.barrier_counts[i]);
        out += '\n';
    }
    // Input declarations are emitted only when present so programs
    // without them serialize byte-identically to the pre-declaration
    // format (on-disk corpus compatibility).
    for (const auto &d : p.inputs) {
        out += "input";
        putQuoted(out, d.name);
        putInt(out, d.lo);
        putInt(out, d.hi);
        out += '\n';
    }
    for (const auto &f : p.functions) {
        out += "func";
        putQuoted(out, f.name);
        putInt(out, f.num_params);
        putInt(out, f.num_regs);
        out += '\n';
        for (const auto &b : f.blocks) {
            out += "block";
            putQuoted(out, b.name);
            out += '\n';
            for (const auto &inst : b.insts) {
                out += "inst ";
                out += opName(inst.op);
                putInt(out, inst.dst);
                putOperand(out, inst.a);
                putOperand(out, inst.b);
                putOperand(out, inst.c);
                out += ' ';
                out += sym::kindName(inst.kind);
                putInt(out, widthBits(inst.width));
                putInt(out, inst.gid);
                putInt(out, inst.sid);
                putInt(out, inst.sid2);
                putInt(out, inst.fid);
                putInt(out, inst.then_block);
                putInt(out, inst.else_block);
                putInt(out, inst.lo);
                putInt(out, inst.hi);
                putQuoted(out, inst.text);
                putQuoted(out, inst.loc.file);
                putInt(out, inst.loc.line);
                out += '\n';
            }
        }
    }
    out += "end\n";
    return out;
}

std::optional<Program>
deserializeProgram(const std::string &text, std::string *error)
{
    auto fail = [&](const std::string &msg) -> std::optional<Program> {
        if (error)
            *error = msg;
        return std::nullopt;
    };

    static const auto ops = opTable();
    static const auto kinds = kindTable();

    // Hard bounds on declared sizes: malformed or adversarial input
    // (fuzzer-found cases) must fail cleanly, never OOM or crash.
    constexpr int kMaxGlobalSize = 1 << 20;
    constexpr int kMaxRegs = 1 << 20;
    constexpr int kMaxBarrierCount = 4096;

    Program p;
    Function *cur_func = nullptr;
    BasicBlock *cur_block = nullptr;

    std::set<std::string> global_names, mutex_names, cond_names,
        barrier_names, func_names, input_names;

    std::string_view rest = text;
    std::string_view line;
    int lineno = 0;
    bool saw_header = false;
    bool saw_end = false;

    while (nextLine(rest, line)) {
        lineno += 1;
        if (line.empty())
            continue;
        LineReader lr(line);
        const std::string_view tag = lr.token();

        auto where = [&] {
            return " (line " + std::to_string(lineno) + ")";
        };

        if (!saw_header && tag != "pil")
            return fail("'" + std::string(tag) +
                        "' before 'pil v1' header" + where());

        if (tag == "inst") {
            if (!cur_block)
                return fail("inst outside block" + where());
            Inst &inst = cur_block->insts.emplace_back();
            const std::string_view opname = lr.token();
            const bool dst_ok = lr.integer(inst.dst);
            const std::string_view ta = lr.token();
            const std::string_view tb = lr.token();
            const std::string_view tc = lr.token();
            const std::string_view kindname = lr.token();
            int width_bits = 64;
            if (opname.empty() || !dst_ok || ta.empty() || tb.empty() ||
                tc.empty() || kindname.empty() ||
                !lr.integer(width_bits) || !lr.integer(inst.gid) ||
                !lr.integer(inst.sid) || !lr.integer(inst.sid2) ||
                !lr.integer(inst.fid) || !lr.integer(inst.then_block) ||
                !lr.integer(inst.else_block) || !lr.integer(inst.lo) ||
                !lr.integer(inst.hi)) {
                return fail("bad inst fields" + where());
            }
            auto oit = ops.find(opname);
            if (oit == ops.end())
                return fail("unknown op '" + std::string(opname) + "'" +
                            where());
            inst.op = oit->second;
            if (!parseOperand(ta, inst.a) ||
                !parseOperand(tb, inst.b) ||
                !parseOperand(tc, inst.c)) {
                return fail("bad operand" + where());
            }
            auto kit = kinds.find(kindname);
            if (kit == kinds.end())
                return fail("unknown kind" + where());
            inst.kind = kit->second;
            switch (width_bits) {
              case 1: inst.width = sym::Width::I1; break;
              case 8: inst.width = sym::Width::I8; break;
              case 16: inst.width = sym::Width::I16; break;
              case 32: inst.width = sym::Width::I32; break;
              case 64: inst.width = sym::Width::I64; break;
              default: return fail("bad width" + where());
            }
            if (inst.dst < -1)
                return fail("bad dst register" + where());
            if (!lr.quoted(inst.text) || !lr.quoted(inst.loc.file) ||
                !lr.integer(inst.loc.line)) {
                return fail("bad inst strings" + where());
            }
            if (!lr.token().empty())
                return fail("trailing tokens after inst" + where());
        } else if (tag == "pil") {
            if (saw_header)
                return fail("duplicate 'pil' header" + where());
            if (lr.token() != "v1")
                return fail("unsupported version" + where());
            if (!lr.quoted(p.name))
                return fail("bad program name" + where());
            saw_header = true;
        } else if (tag == "global") {
            Global g;
            if (!lr.quoted(g.name) || !lr.integer(g.size))
                return fail("bad global" + where());
            if (g.size < 1 || g.size > kMaxGlobalSize)
                return fail("global size out of range" + where());
            if (!global_names.insert(g.name).second)
                return fail("duplicate global '" + g.name + "'" +
                            where());
            for (std::string_view tok = lr.token(); !tok.empty();
                 tok = lr.token()) {
                std::int64_t v = 0;
                if (!parseInt(tok, v))
                    return fail("bad global init value" + where());
                g.init.push_back(v);
            }
            if (g.init.size() > static_cast<std::size_t>(g.size))
                return fail("more init values than cells" + where());
            p.globals.push_back(std::move(g));
        } else if (tag == "mutex") {
            std::string n;
            if (!lr.quoted(n))
                return fail("bad mutex" + where());
            if (!mutex_names.insert(n).second)
                return fail("duplicate mutex '" + n + "'" + where());
            p.mutex_names.push_back(std::move(n));
        } else if (tag == "cond") {
            std::string n;
            if (!lr.quoted(n))
                return fail("bad cond" + where());
            if (!cond_names.insert(n).second)
                return fail("duplicate cond '" + n + "'" + where());
            p.cond_names.push_back(std::move(n));
        } else if (tag == "barrier") {
            std::string n;
            int count = 0;
            if (!lr.quoted(n) || !lr.integer(count))
                return fail("bad barrier" + where());
            if (count < 1 || count > kMaxBarrierCount)
                return fail("barrier count out of range" + where());
            if (!barrier_names.insert(n).second)
                return fail("duplicate barrier '" + n + "'" +
                            where());
            p.barrier_names.push_back(std::move(n));
            p.barrier_counts.push_back(count);
        } else if (tag == "input") {
            InputDecl d;
            if (!lr.quoted(d.name) || !lr.integer(d.lo) ||
                !lr.integer(d.hi)) {
                return fail("bad input declaration" + where());
            }
            if (d.lo > d.hi)
                return fail("input domain empty" + where());
            if (!input_names.insert(d.name).second)
                return fail("duplicate input '" + d.name + "'" +
                            where());
            if (!lr.token().empty())
                return fail("trailing tokens after input" + where());
            p.inputs.push_back(std::move(d));
        } else if (tag == "func") {
            Function f;
            if (!lr.quoted(f.name) || !lr.integer(f.num_params) ||
                !lr.integer(f.num_regs)) {
                return fail("bad func" + where());
            }
            if (f.num_params < 0 || f.num_regs < 0 ||
                f.num_regs > kMaxRegs || f.num_params > f.num_regs) {
                return fail("func register counts out of range" +
                            where());
            }
            if (!func_names.insert(f.name).second)
                return fail("duplicate func '" + f.name + "'" +
                            where());
            p.functions.push_back(std::move(f));
            cur_func = &p.functions.back();
            cur_block = nullptr;
        } else if (tag == "block") {
            if (!cur_func)
                return fail("block outside func" + where());
            BasicBlock b;
            if (!lr.quoted(b.name))
                return fail("bad block" + where());
            cur_func->blocks.push_back(std::move(b));
            cur_block = &cur_func->blocks.back();
        } else if (tag == "end") {
            saw_end = true;
            break;
        } else {
            return fail("unknown tag '" + std::string(tag) + "'" +
                        where());
        }
    }

    if (!saw_header)
        return fail("missing 'pil v1' header");
    if (!saw_end)
        return fail("missing 'end'");
    while (nextLine(rest, line)) {
        lineno += 1;
        if (!line.empty()) {
            return fail("content after 'end' (line " +
                        std::to_string(lineno) + ")");
        }
    }
    p.entry = p.findFunction("main");
    if (p.entry < 0)
        return fail("program has no main function");
    // Structural validation before finalize: out-of-range operands,
    // dangling block/function/sync references, missing terminators —
    // a deserialized program must be as safe to execute as a
    // builder-built one.
    std::vector<std::string> errors = verifyProgram(p);
    if (!errors.empty())
        return fail("verification failed: " + errors.front());
    p.finalize();
    return p;
}

} // namespace portend::ir

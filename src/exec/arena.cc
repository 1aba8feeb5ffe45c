#include "exec/arena.hh"

namespace manticore::exec {

namespace lo = ::manticore::limbops;

BitVector
Arena::read(uint32_t slot, unsigned width, unsigned lane) const
{
    const uint64_t *p = at(slot, width, lane);
    std::vector<uint64_t> limbs(p, p + lo::nlimbs(width));
    return BitVector::fromLimbs(width, limbs);
}

void
Arena::write(uint32_t slot, unsigned lane, const BitVector &value)
{
    const unsigned n = lo::nlimbs(value.width());
    uint64_t *cur = at(slot, value.width(), lane);
    lo::copy(cur, value.limbs().data(), n);
    lo::copy(other() + (cur - data()), cur, n);
}

void
Arena::broadcast(uint32_t slot, const BitVector &value)
{
    const unsigned n = lo::nlimbs(value.width());
    lo::broadcast(data() + slot, value.limbs().data(), n, _lanes);
    lo::copy(other() + slot, data() + slot, n * _lanes);
}

} // namespace manticore::exec

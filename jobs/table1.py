"""spark-submit entrypoint for Table 1 (dataset statistics)."""
from repro.experiments.table1 import print_table1
from repro.session import scale, session

if __name__ == "__main__":
    spark = session("repro-table1")
    df = print_table1(spark, scale=scale())
    df.to_csv("results_table1.csv", index=False)
    spark.stop()
